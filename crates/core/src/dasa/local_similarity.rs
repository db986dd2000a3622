//! Earthquake detection via local similarity (paper Algorithm 2).
//!
//! The local-similarity method (Li et al. 2018) scores each point of the
//! DAS array by how well a window around it correlates with windows on
//! the two neighbouring channels, searching over small time lags —
//! coherent wavefronts (vehicles, earthquakes) score high, incoherent
//! noise scores low. Figure 10 of the paper is exactly this map.

use super::haee::Haee;
use super::rows::Sample;
use arrayudf::{apply_mt, dist, Array2, Ghost, Stencil, Stride};
use dasl::LocalSimSpec;
use dsp::{energy, max_abscorr_lags};
use minimpi::Comm;
use std::borrow::Cow;

/// Parameters of Algorithm 2.
///
/// Window width is `2·half_window + 1` (the paper's `2M+1`); neighbours
/// sit at channel offsets `±channel_offset` (`±K`); `2·search_half + 1`
/// lagged windows are scanned per neighbour (`2L+1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSimiParams {
    /// `M`: half the comparison window, in samples.
    pub half_window: usize,
    /// `K`: channel offset of the two neighbours.
    pub channel_offset: usize,
    /// `L`: half the lag-search range, in samples.
    pub search_half: usize,
    /// Output decimation along time: evaluate every `time_stride`-th
    /// sample (1 = every sample, as in the paper's dense map).
    pub time_stride: usize,
}

/// The defaults of a `dasl` `localsim` stage.
impl Default for LocalSimiParams {
    fn default() -> Self {
        LocalSimSpec::default().into()
    }
}

impl From<LocalSimSpec> for LocalSimiParams {
    fn from(s: LocalSimSpec) -> Self {
        LocalSimiParams {
            half_window: s.half_window as usize,
            channel_offset: s.channel_offset as usize,
            search_half: s.search_half as usize,
            time_stride: s.time_stride as usize,
        }
    }
}

impl From<LocalSimiParams> for LocalSimSpec {
    fn from(p: LocalSimiParams) -> Self {
        LocalSimSpec {
            half_window: p.half_window as u64,
            channel_offset: p.channel_offset as u64,
            search_half: p.search_half as u64,
            time_stride: p.time_stride as u64,
        }
    }
}

impl LocalSimiParams {
    /// Ghost reach the UDF needs: `M + L` in time, `K` in channel.
    pub fn ghost(&self) -> Ghost {
        Ghost::both(self.half_window + self.search_half, self.channel_offset)
    }

    fn stride(&self) -> Stride {
        Stride {
            time: self.time_stride.max(1),
            channel: 1,
        }
    }
}

/// Algorithm 2: the UDF evaluated at one stencil position.
///
/// ```text
/// W = S(−M:M, 0)
/// for l = −L..L:
///     C+K = max(C+K, abscorr(W, S(l−M : l+M, +K)))
///     C−K = max(C−K, abscorr(W, S(l−M : l+M, −K)))
/// return (C+K + C−K) / 2
/// ```
///
/// The `2L+1` lagged windows of one neighbour are the windows of one
/// span, `S(−L−M : L+M, ±K)` — the stencil clamps each sample to the
/// array on its own, so a clamped span holds exactly the clamped windows
/// — and [`max_abscorr_lags`] scores them side by side.
pub fn local_simi_udf<T: Sample>(s: &Stencil<T>, p: &LocalSimiParams) -> f64 {
    let m = p.half_window as isize;
    let k = p.channel_offset as isize;
    let reach = p.search_half as isize + m;
    let w = window(s, -m, m, 0);
    // W meets every lagged neighbour window: its energy is summed once.
    let w_energy = energy(&w);
    let c_plus = max_abscorr_lags(&w, w_energy, &window(s, -reach, reach, k));
    let c_minus = max_abscorr_lags(&w, w_energy, &window(s, -reach, reach, -k));
    0.5 * (c_plus + c_minus)
}

/// `S(t_lo : t_hi, dc)` in `f64`: borrowed from an `f64` array wherever
/// the window lies inside it; widened into a copy from any other sample
/// type, and copied with edge clamping at the array's borders.
fn window<'a, T: Sample>(
    s: &Stencil<'a, T>,
    t_lo: isize,
    t_hi: isize,
    dc: isize,
) -> Cow<'a, [f64]> {
    let widen = |w: &[T]| w.iter().map(|&v| v.into()).collect();
    match s.window_slice(t_lo, t_hi, dc) {
        Some(slice) => T::as_f64(slice).map_or_else(|| Cow::Owned(widen(slice)), Cow::Borrowed),
        None => Cow::Owned(widen(&s.window(t_lo, t_hi, dc))),
    }
}

/// Run local similarity over a full `channel × time` array with the
/// hybrid engine's threads (ApplyMT). Output shape:
/// `channels × ceil(time / time_stride)`, values in `[0, 1]`.
pub fn local_similarity<T: Sample>(
    data: &Array2<T>,
    params: &LocalSimiParams,
    haee: &Haee,
) -> Array2<f64> {
    let _root = obs::span("local_similarity");
    let _span = obs::span("apply");
    apply_mt(
        data,
        params.ghost(),
        params.stride(),
        haee.threads_per_process,
        |s| local_simi_udf(s, params),
    )
}

/// Distributed variant: each rank processes its channel block of a
/// `total_channels`-row global array (ghost channels exchanged
/// automatically); returns the rank's block of the similarity map.
pub fn local_similarity_dist<T: Sample>(
    comm: &Comm,
    local: &Array2<T>,
    total_channels: usize,
    params: &LocalSimiParams,
    haee: &Haee,
) -> Array2<f64> {
    dist::apply_dist(
        comm,
        local,
        total_channels,
        params.ghost(),
        params.stride(),
        haee.threads_per_process,
        |s| local_simi_udf(s, params),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrayudf::apply;

    fn params_small() -> LocalSimiParams {
        LocalSimiParams {
            half_window: 4,
            channel_offset: 1,
            search_half: 2,
            time_stride: 1,
        }
    }

    /// Coherent plane wave: same waveform on every channel with a small
    /// per-channel delay.
    fn coherent(channels: usize, time: usize) -> Array2<f64> {
        Array2::from_fn(channels, time, |c, t| {
            ((t as f64 - c as f64) * 0.7).sin() + 0.1 * ((t * 13 + c * 7) % 11) as f64 / 11.0
        })
    }

    /// Independent per-channel pseudo-noise (splitmix-style mixer, so no
    /// periodic structure survives along time or channel).
    fn incoherent(channels: usize, time: usize) -> Array2<f64> {
        Array2::from_fn(channels, time, |c, t| {
            let mut z = (c as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((t as u64).wrapping_mul(0xBF58476D1CE4E5B9))
                .wrapping_add(0x2545F4914F6CDD1D);
            z ^= z >> 30;
            z = z.wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 27;
            (z % 2_000_000) as f64 / 1_000_000.0 - 1.0
        })
    }

    /// Algorithm 2 one lagged window at a time — the body
    /// `local_simi_udf` had before the lags of a neighbour became one
    /// span.
    fn per_lag_udf(s: &Stencil<f64>, p: &LocalSimiParams) -> f64 {
        let m = p.half_window as isize;
        let k = p.channel_offset as isize;
        let l_half = p.search_half as isize;
        let w = s.window(-m, m, 0);
        let w_energy = energy(&w);
        let (mut c_plus, mut c_minus) = (0.0f64, 0.0f64);
        for l in -l_half..=l_half {
            let w1 = s.window(l - m, l + m, k);
            let w2 = s.window(l - m, l + m, -k);
            c_plus = c_plus.max(dsp::abscorr_with_energy(&w, w_energy, &w1));
            c_minus = c_minus.max(dsp::abscorr_with_energy(&w, w_energy, &w2));
        }
        0.5 * (c_plus + c_minus)
    }

    /// The span of a neighbour's lagged windows is clamped to the array
    /// sample by sample, exactly as each window was: every cell — the
    /// corners and edges, where spans are clamped in time, in channel or
    /// in both, and the interior, where they are borrowed — has the
    /// per-lag bits, for lag counts below, at and above a lane group.
    #[test]
    fn udf_has_the_per_lag_bits_at_every_cell() {
        let one_bit =
            |a: Array2<f64>| Array2::from_fn(a.rows(), a.cols(), |c, t| a.get(c, t).signum());
        let stride = Stride {
            time: 1,
            channel: 1,
        };
        for data in [coherent(5, 70), one_bit(incoherent(4, 90)), coherent(1, 30)] {
            for (half_window, channel_offset, search_half) in [
                (4, 1, 2),
                (3, 2, 0),
                (2, 1, 3),
                (2, 1, 4),
                (5, 1, 10),
                (25, 1, 10),
            ] {
                let p = LocalSimiParams {
                    half_window,
                    channel_offset,
                    search_half,
                    time_stride: 1,
                };
                let got = apply(&data, p.ghost(), stride, |s| local_simi_udf(s, &p));
                let want = apply(&data, p.ghost(), stride, |s| per_lag_udf(s, &p));
                assert_eq!(got, want, "{p:?} over {} x {}", data.rows(), data.cols());
            }
        }
        // a silent array scores 0 everywhere, not NaN
        let p = params_small();
        let silent = Array2::from_fn(3, 40, |_, _| 0.0);
        let map = apply(&silent, p.ghost(), stride, |s| local_simi_udf(s, &p));
        assert!(map.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn output_shape_and_range() {
        let data = coherent(6, 120);
        let p = params_small();
        let out = local_similarity(&data, &p, &Haee::builder().threads(2).build());
        assert_eq!(out.rows(), 6);
        assert_eq!(out.cols(), 120);
        for &v in out.as_slice() {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&v),
                "similarity {v} out of range"
            );
        }
    }

    #[test]
    fn coherent_scores_higher_than_incoherent() {
        let p = params_small();
        let hi = local_similarity(&coherent(8, 200), &p, &Haee::builder().threads(2).build());
        let lo = local_similarity(&incoherent(8, 200), &p, &Haee::builder().threads(2).build());
        let mean = |a: &Array2<f64>| a.as_slice().iter().sum::<f64>() / a.len() as f64;
        let (m_hi, m_lo) = (mean(&hi), mean(&lo));
        assert!(
            m_hi > m_lo + 0.2,
            "coherent {m_hi:.3} should beat incoherent {m_lo:.3}"
        );
        assert!(
            m_hi > 0.9,
            "plane wave should be near-perfectly similar: {m_hi:.3}"
        );
    }

    #[test]
    fn time_stride_decimates_output() {
        let data = coherent(4, 100);
        let mut p = params_small();
        p.time_stride = 10;
        let out = local_similarity(&data, &p, &Haee::builder().threads(1).build());
        assert_eq!(out.cols(), 10);
    }

    #[test]
    fn udf_matches_sequential_apply() {
        let data = coherent(5, 80);
        let p = params_small();
        let serial = apply(
            &data,
            p.ghost(),
            Stride {
                time: 1,
                channel: 1,
            },
            |s| local_simi_udf(s, &p),
        );
        let mt = local_similarity(&data, &p, &Haee::builder().threads(4).build());
        assert_eq!(serial, mt);
    }

    #[test]
    fn dist_matches_local() {
        let data = coherent(12, 90);
        let p = params_small();
        let expected = local_similarity(&data, &p, &Haee::builder().threads(1).build());
        let blocks = minimpi::run(3, |comm| {
            let own = dist::partition(12, comm.size(), comm.rank());
            let local = data.row_block(own.start, own.end);
            local_similarity_dist(comm, &local, 12, &p, &Haee::builder().threads(2).build())
        });
        assert_eq!(Array2::vstack(&blocks), expected);
    }

    #[test]
    fn default_params_are_sane() {
        let p = LocalSimiParams::default();
        assert!(p.half_window > 0 && p.search_half > 0 && p.channel_offset > 0);
        let g = p.ghost();
        assert_eq!(g.time, p.half_window + p.search_half);
        assert_eq!(g.channel, p.channel_offset);
    }
}
