//! Trend removal — the paper's `Das_detrend(X)`, which "removes the best
//! straight-line fit" (MATLAB `detrend` semantics).

/// Slope and intercept of the least-squares line through `x` over
/// `t = 0..n−1`, in closed form. Needs two samples or more.
fn fit_line(x: &[f64]) -> (f64, f64) {
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

/// Remove the least-squares straight-line fit from `x`.
pub fn detrend(x: &[f64]) -> Vec<f64> {
    if x.len() < 2 {
        return vec![0.0; x.len()];
    }
    let (slope, intercept) = fit_line(x);
    x.iter()
        .enumerate()
        .map(|(i, &v)| v - (slope * i as f64 + intercept))
        .collect()
}

/// [`detrend`] overwriting its input.
pub fn detrend_in_place(x: &mut [f64]) {
    if x.len() < 2 {
        return x.fill(0.0);
    }
    let (slope, intercept) = fit_line(x);
    for (i, v) in x.iter_mut().enumerate() {
        *v -= slope * i as f64 + intercept;
    }
}

/// Remove the mean (MATLAB `detrend(x, 'constant')`).
pub fn detrend_constant(x: &[f64]) -> Vec<f64> {
    let mut out = x.to_vec();
    detrend_constant_in_place(&mut out);
    out
}

/// [`detrend_constant`] overwriting its input.
pub fn detrend_constant_in_place(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    for v in x {
        *v -= mean;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_place_variants_have_the_same_bits() {
        for n in [0usize, 1, 2, 3, 100] {
            let x: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.3).sin() + 0.02 * i as f64)
                .collect();
            let mut y = x.clone();
            detrend_in_place(&mut y);
            assert_eq!(y, detrend(&x));
            let mut y = x.clone();
            detrend_constant_in_place(&mut y);
            assert_eq!(y, detrend_constant(&x));
        }
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
