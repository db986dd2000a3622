//! Order statistics for the harness: medians, Python-compatible
//! quartiles, and the block-median aggregation every gated timing uses.

/// Blocks the measured phase is cut into (noise rule 5).
pub const BLOCKS: usize = 12;

/// Median of `v` (mean of the two middle values for even lengths).
/// `v` must not be empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them, so the spread
/// `selfcheck` prints is the number the driver computes. Needs two
/// values or more.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Cut `samples` (in arrival order) into `blocks` near-equal contiguous
/// blocks and return each block's median. With fewer samples than
/// blocks every sample is its own block.
pub fn block_medians(samples: &[f64], blocks: usize) -> Vec<f64> {
    let n = samples.len();
    let b = blocks.min(n).max(1);
    (0..b)
        .map(|i| median(&samples[i * n / b..(i + 1) * n / b]))
        .collect()
}

/// What one timing metric reports for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median of per-block medians — the metric's value.
    pub value: f64,
    /// First quartile of the raw samples.
    pub q1: f64,
    /// Third quartile of the raw samples.
    pub q3: f64,
    /// Raw sample count.
    pub n: usize,
    /// Median of the first half of the samples.
    pub first_half: f64,
    /// Median of the second half.
    pub second_half: f64,
    /// Inter-quartile range of the block medians ÷ `value`.
    pub block_iqr_ratio: f64,
}

impl Summary {
    /// Second-half ÷ first-half median: 1.0 means no drift.
    pub fn drift_ratio(&self) -> f64 {
        self.second_half / self.first_half
    }
}

/// Summarize one metric's samples (arrival order). `None` when empty.
pub fn summarize(samples: &[f64], blocks: usize) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let bm = block_medians(samples, blocks);
    let value = median(&bm);
    let (q1, q3) = if n >= 2 {
        let (a, _, c) = quartiles(samples);
        (a, c)
    } else {
        (samples[0], samples[0])
    };
    let block_iqr_ratio = if bm.len() >= 2 {
        let (a, _, c) = quartiles(&bm);
        (c - a) / value
    } else {
        0.0
    };
    let half = (n / 2).max(1);
    Some(Summary {
        value,
        q1,
        q3,
        n,
        first_half: median(&samples[..half]),
        second_half: median(&samples[n - half..]),
        block_iqr_ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            (15.0, 30.0, 45.0)
        );
    }

    #[test]
    fn block_medians_ignore_an_outlier_burst() {
        // 24 samples in 12 blocks of 2; one block is a 100x burst.
        let mut v = vec![1.0; 24];
        v[4] = 100.0;
        v[5] = 100.0;
        let bm = block_medians(&v, 12);
        assert_eq!(bm.len(), 12);
        assert_eq!(bm[2], 100.0);
        assert_eq!(median(&bm), 1.0);
    }

    #[test]
    fn block_boundaries_cover_every_sample_once() {
        let v: Vec<f64> = (0..29).map(f64::from).collect();
        let bm = block_medians(&v, 12);
        assert_eq!(bm.len(), 12);
        // blocks are contiguous and ordered, so their medians ascend
        assert!(bm.windows(2).all(|w| w[0] < w[1]));
        // fewer samples than blocks: one block per sample
        assert_eq!(block_medians(&v[..5], 12), &v[..5]);
    }

    #[test]
    fn summary_reports_drift_and_spread() {
        let mut v = vec![10.0; 60];
        for x in v.iter_mut().skip(30) {
            *x = 11.0;
        }
        let s = summarize(&v, BLOCKS).unwrap();
        assert_eq!(s.n, 60);
        assert_eq!(s.first_half, 10.0);
        assert_eq!(s.second_half, 11.0);
        assert!((s.drift_ratio() - 1.1).abs() < 1e-12);
        assert_eq!(s.value, 10.5);
        assert!(summarize(&[], BLOCKS).is_none());
    }
}
