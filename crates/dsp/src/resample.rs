//! Rational-rate resampling — the paper's `Das_resample(X, p, q)`.
//!
//! MATLAB-style: upsample by `p`, anti-alias with a Kaiser-windowed sinc
//! FIR, downsample by `q`, with gain and group-delay compensation so
//! `output[0]` aligns with `input[0]`. The implementation walks the
//! polyphase structure directly (only taps that land on kept samples are
//! evaluated), so cost is O(len·taps/p) rather than O(len·p·taps).

use crate::tier;
use crate::window::kaiser;

/// The largest reduced factor (`max(p, q)` after dividing by their gcd)
/// a caller that takes the ratio from outside the program should hand to
/// [`Resampler::new`]: the anti-alias FIR has `20·max(p, q) + 1` taps, so
/// this keeps it at 81 921 taps (640 KiB) and its design under 10 ms.
/// `Resampler` and [`resample`] themselves do not enforce it — MATLAB's
/// function takes any ratio — and an unbounded one asks the allocator for
/// 160 bytes per unit of the factor.
pub const MAX_FACTOR: usize = 4096;

/// Greatest common divisor.
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// `p/q` in lowest terms — the ratio a [`Resampler`] is designed for.
///
/// # Panics
/// Panics when both are zero.
pub fn reduce(p: usize, q: usize) -> (usize, usize) {
    let g = gcd(p, q);
    (p / g, q / g)
}

/// Design the anti-alias lowpass used by MATLAB `resample`: cutoff at
/// `1/max(p,q)` of the upsampled Nyquist, `2·N·max(p,q)+1` taps
/// (N = 10), Kaiser β = 5, scaled by `p`.
fn design_fir(p: usize, q: usize) -> Vec<f64> {
    let n_half = 10 * p.max(q);
    let len = 2 * n_half + 1;
    let fc = 1.0 / p.max(q) as f64; // fraction of upsampled Nyquist
    let win = kaiser(len, 5.0);
    (0..len)
        .map(|i| {
            let t = i as f64 - n_half as f64;
            let sinc = if t == 0.0 {
                fc
            } else {
                (std::f64::consts::PI * fc * t).sin() / (std::f64::consts::PI * t)
            };
            sinc * win[i] * p as f64
        })
        .collect()
}

/// Outputs one loop advances side by side on the baseline tier (see the
/// lane rule in the crate docs): sixteen accumulators are eight of the
/// baseline target's sixteen vector registers, and enough independent
/// sums that the loop waits on arithmetic throughput, not on the latency
/// of one addition (eight measured 30 µs for a 5000-sample 2:1 row,
/// sixteen 22; at a 12 000-sample row thirty-two spill: 53 µs against
/// sixteen's 50).
const LANES: usize = 16;

/// Outputs the loop advances side by side on the AVX2 tier: eight of its
/// sixteen 256-bit registers (a 12 000-sample 2:1 row took 43 µs at
/// sixteen lanes there, 35 at thirty-two).
const WIDE_LANES: usize = 32;

/// A rational-rate resampler for one reduced ratio `p/q`: the anti-alias
/// FIR is designed once and stored by polyphase branch, so an output
/// sample is one dot product of a branch with consecutive input samples.
///
/// Outputs `k, k+p, k+2p, …` use the same branch, and their windows
/// start exactly `q` inputs apart. [`apply_into`](Self::apply_into)
/// therefore splits the row once into its `q` residue phases
/// (`x[r], x[r+q], …` — caller scratch), after which the samples that
/// meet tap `j` in a group of such outputs are contiguous, and advances
/// those dot products together, one tap at a time, taps ascending —
/// each output is still `((v₀t₀ + v₁t₁) + v₂t₂) + …` in tap order, so it
/// has the bits it has alone. A group is sixteen outputs on the baseline
/// instruction-set tier and thirty-two on AVX2 (`tier`); windows clipped
/// by either end of the row, and the last few of a phase, are summed one
/// output at a time.
#[derive(Debug, Clone)]
pub struct Resampler {
    p: usize,
    q: usize,
    /// Half the FIR length (its group delay in upsampled samples).
    half: usize,
    /// Branch `φ` holds taps `φ, φ+p, φ+2p, …` of the FIR: the ones that
    /// meet input samples when the first tap under the window does.
    branches: Vec<Vec<f64>>,
}

impl Resampler {
    /// Design the resampler for rate `p/q` (reduced by their gcd first).
    ///
    /// # Panics
    /// Panics when `p` or `q` is zero.
    pub fn new(p: usize, q: usize) -> Resampler {
        assert!(p > 0 && q > 0, "resample factors must be positive");
        let (p, q) = reduce(p, q);
        if p == 1 && q == 1 {
            return Resampler {
                p,
                q,
                half: 0,
                branches: Vec::new(),
            };
        }
        let h = design_fir(p, q);
        Resampler {
            p,
            q,
            half: (h.len() - 1) / 2,
            branches: (0..p)
                .map(|phase| h.iter().skip(phase).step_by(p).copied().collect())
                .collect(),
        }
    }

    /// Output length for an input of `n` samples: `ceil(n·p/q)`.
    pub fn out_len(&self, n: usize) -> usize {
        (n * self.p).div_ceil(self.q)
    }

    /// Where output `k`'s window starts: the index of the first input
    /// sample under it (negative when it hangs over the start of the
    /// row) and the taps that meet consecutive samples from there.
    ///
    /// Output `k` sits at upsampled index `k·q`; the FIR is centred there
    /// (delay `half` compensated). Upsampled index `u` holds input sample
    /// `u/p` when divisible and zero otherwise, so only the taps of one
    /// branch — those over multiples of `p` — contribute.
    fn window(&self, k: usize) -> (isize, &[f64]) {
        let p = self.p as isize;
        let lo = (k * self.q) as isize - self.half as isize;
        let first = lo.div_euclid(p) + isize::from(lo.rem_euclid(p) != 0);
        (first, &self.branches[(first * p - lo) as usize])
    }

    /// Output `k` alone; samples before the start and past the end of
    /// `x` count as zero.
    fn output(&self, x: &[f64], k: usize) -> f64 {
        let (first, taps) = self.window(k);
        let from = (-first).max(0);
        let to = (x.len() as isize - first).min(taps.len() as isize);
        let samples = &x[(first + from) as usize..(first + to) as usize];
        let mut acc = 0.0;
        for (&v, &t) in samples.iter().zip(&taps[from as usize..to as usize]) {
            acc += v * t;
        }
        acc
    }

    /// Resample `x` into `out` (cleared first). `phases` is resized to
    /// hold the row split by residue; nothing is allocated once both
    /// have the capacity.
    pub fn apply_into(&self, x: &[f64], out: &mut Vec<f64>, phases: &mut Vec<f64>) {
        out.clear();
        if self.branches.is_empty() || x.is_empty() {
            out.extend_from_slice(x);
            return;
        }
        let (q, n) = (self.q, x.len());
        out.resize(self.out_len(n), 0.0);
        // Phase `r` is `x[r], x[r+q], …` at `phases[r·stride..]`; the
        // last cell of a short phase keeps whatever it held and is never
        // read (the lanes only take windows that lie inside the row).
        let stride = n.div_ceil(q);
        let phases: &[f64] = if q == 1 {
            x
        } else {
            phases.resize(q * stride, 0.0);
            for (r, phase) in phases.chunks_exact_mut(stride).enumerate() {
                for (dst, &v) in phase.iter_mut().zip(x.iter().skip(r).step_by(q)) {
                    *dst = v;
                }
            }
            phases
        };
        tier::run(Outputs {
            resampler: self,
            x,
            phases,
            stride,
            out,
        });
    }
}

/// The outputs of one row, [`Resampler::apply_into`]'s lane loop as a
/// [`tier::Kernel`]: `phases` is the row split by residue, `stride`
/// apart, and `out` has the output length.
struct Outputs<'a> {
    resampler: &'a Resampler,
    x: &'a [f64],
    phases: &'a [f64],
    stride: usize,
    out: &'a mut [f64],
}

impl tier::Kernel for Outputs<'_> {
    type Output = ();

    #[inline(always)]
    fn run<const WIDE: bool>(self) {
        if WIDE {
            self.lanes::<WIDE_LANES>();
        } else {
            self.lanes::<LANES>();
        }
    }
}

impl Outputs<'_> {
    /// Every output, `L` at a time where their windows lie inside the
    /// row.
    #[inline(always)]
    fn lanes<const L: usize>(self) {
        let Outputs {
            resampler,
            x,
            phases,
            stride,
            out,
        } = self;
        let (p, q, n) = (resampler.p, resampler.q, x.len());
        // One residue class of outputs at a time: `k = class + p·m`,
        // whose window starts at `first + q·m`.
        for class in 0..p.min(out.len()) {
            let count = (out.len() - class).div_ceil(p);
            let (first, taps) = resampler.window(class);
            // The `m` whose window lies inside the row: it starts at or
            // after sample 0 and `q·m` leaves room for every tap.
            let inside_from = ((-first).max(0) as usize).div_ceil(q).min(count);
            let room = n as isize - taps.len() as isize - first;
            let inside_to = if room < 0 {
                inside_from
            } else {
                (room as usize / q + 1).clamp(inside_from, count)
            };
            let lanes_to = inside_to - (inside_to - inside_from) % L;
            for m in (inside_from..lanes_to).step_by(L) {
                // Sample `start + j` of lane 0 meets tap `j`; the other
                // lanes' samples follow it in the same phase.
                let start = (first + (q * m) as isize) as usize;
                let (mut r, mut at) = (start % q, start % q * stride + start / q);
                let mut acc = [0.0; L];
                for &t in taps {
                    let samples: &[f64; L] = phases[at..at + L].try_into().expect("L samples");
                    for lane in 0..L {
                        acc[lane] += samples[lane] * t;
                    }
                    r += 1;
                    at += stride;
                    if r == q {
                        r = 0;
                        at -= q * stride - 1;
                    }
                }
                for (lane, acc) in acc.into_iter().enumerate() {
                    out[class + p * (m + lane)] = acc;
                }
            }
            for m in (0..inside_from).chain(lanes_to..count) {
                out[class + p * m] = resampler.output(x, class + p * m);
            }
        }
    }
}

/// Resample `x` from rate `p/q` (MATLAB `resample(x, p, q)`).
///
/// Output length is `ceil(len·p/q)`. The 6-minute DASSA interferometry
/// pipeline uses this to take 500 Hz channels down to analysis rate.
/// Row loops build one [`Resampler`] and reuse it.
///
/// # Panics
/// Panics when `p` or `q` is zero.
pub fn resample(x: &[f64], p: usize, q: usize) -> Vec<f64> {
    let (mut out, mut phases) = (Vec::new(), Vec::new());
    Resampler::new(p, q).apply_into(x, &mut out, &mut phases);
    out
}

/// Integer-factor decimation with anti-alias filtering:
/// `decimate(x, q) == resample(x, 1, q)`.
pub fn decimate(x: &[f64], q: usize) -> Vec<f64> {
    resample(x, 1, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(n: usize, cycles_per_sample: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * cycles_per_sample * i as f64).sin())
            .collect()
    }

    /// The per-call, branch-per-tap implementation `Resampler` replaced,
    /// kept as the bit-exact reference.
    fn resample_reference(x: &[f64], p: usize, q: usize) -> Vec<f64> {
        assert!(p > 0 && q > 0, "resample factors must be positive");
        let g = gcd(p, q);
        let (p, q) = (p / g, q / g);
        if p == 1 && q == 1 {
            return x.to_vec();
        }
        if x.is_empty() {
            return Vec::new();
        }
        let h = design_fir(p, q);
        let half = (h.len() - 1) / 2;
        let n_out = (x.len() * p).div_ceil(q);

        // Output sample k sits at upsampled index k·q; the FIR is centred
        // there (delay `half` compensated). Upsampled index u maps to input
        // sample u/p when divisible, zero otherwise — skip the zeros by
        // stepping through taps whose upsampled position is ≡ 0 (mod p).
        let mut out = Vec::with_capacity(n_out);
        for k in 0..n_out {
            let centre = (k * q) as isize; // upsampled position of output k
            let lo = centre - half as isize;
            let hi = centre + half as isize;
            let mut acc = 0.0;
            // First upsampled position ≥ lo that is a multiple of p.
            let mut u = lo.div_euclid(p as isize) * p as isize;
            if u < lo {
                u += p as isize;
            }
            while u <= hi {
                let xi = u / p as isize;
                if xi >= 0 && (xi as usize) < x.len() {
                    let tap = (u - lo) as usize;
                    acc += x[xi as usize] * h[tap];
                }
                u += p as isize;
            }
            out.push(acc);
        }
        out
    }

    /// The one-dot-product-per-output `apply_into` the lanes replaced,
    /// kept as the bit-exact reference.
    fn apply_into_reference(r: &Resampler, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        if r.branches.is_empty() {
            out.extend_from_slice(x);
            return;
        }
        let (p, n) = (r.p as isize, x.len() as isize);
        out.extend((0..r.out_len(x.len())).map(|k| {
            let lo = (k * r.q) as isize - r.half as isize;
            let first = lo.div_euclid(p) + isize::from(lo.rem_euclid(p) != 0);
            let taps = &r.branches[(first * p - lo) as usize];
            let from = (-first).max(0);
            let to = (n - first).min(taps.len() as isize);
            let samples = &x[(first + from) as usize..(first + to) as usize];
            let mut acc = 0.0;
            for (&v, &t) in samples.iter().zip(&taps[from as usize..to as usize]) {
                acc += v * t;
            }
            acc
        }));
    }

    /// The shortest row in which `want` outputs of residue class 0 have
    /// their whole window inside the row (the ones the lanes take).
    fn length_with_interior(r: &Resampler, want: usize) -> usize {
        (0..)
            .find(|&n| {
                let inside = |&k: &usize| {
                    let (first, taps) = r.window(k);
                    first >= 0 && first as usize + taps.len() <= n
                };
                (0..r.out_len(n)).step_by(r.p).filter(inside).count() >= want
            })
            .expect("some length is long enough")
    }

    #[test]
    fn resampler_has_the_reference_bits() {
        let x: Vec<f64> = (0..3000)
            .map(|i| (i as f64 * 0.37).sin() + ((i * 7919) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        for (p, q) in [
            (1usize, 2usize),
            (2, 1),
            (2, 3),
            (3, 2),
            (1, 50),
            (4, 6),
            (7, 7),
            (1, 3),
            (3, 1),
            (5, 7),
            (1, 1000),
        ] {
            let resampler = Resampler::new(p, q);
            // around one and two FIR half-lengths, where the window
            // leaves the signal at the start, the end, or both at once
            let half = 10 * p.max(q) / gcd(p, q);
            let lengths = [0, 1, 2, 3, half / p, half, half + 1, 2 * half, 2 * half + 1];
            // around the lengths at which a residue class has no whole
            // window, and, for either tier's lane count, one short of a
            // group, exactly one, one over, and two groups and a leftover
            // (the identity has no windows)
            let interior = [LANES, WIDE_LANES]
                .into_iter()
                .flat_map(|l| [l - 1, l, l + 1, 2 * l + 3])
                .chain([1])
                .map(|want| {
                    if resampler.branches.is_empty() {
                        0
                    } else {
                        length_with_interior(&resampler, want)
                    }
                });
            let lengths: Vec<usize> = lengths
                .into_iter()
                .chain(interior.flat_map(|n| [n.saturating_sub(1), n, n + 1]))
                .chain([97, 1100, 3000])
                .filter(|&n| n <= x.len())
                .collect();
            let mut want = vec![f64::NAN; 7];
            tier::each(|tier| {
                // stale contents must not matter
                let (mut out, mut phases) = (vec![f64::NAN; 5], vec![f64::NAN; 3]);
                for &n in &lengths {
                    apply_into_reference(&resampler, &x[..n], &mut want);
                    assert_eq!(want, resample_reference(&x[..n], p, q));
                    resampler.apply_into(&x[..n], &mut out, &mut phases);
                    assert_eq!(out, want, "{tier:?}: {p}/{q} over {n} samples");
                    assert_eq!(resample(&x[..n], p, q), want);
                    assert_eq!(resampler.out_len(n), want.len());
                }
            });
        }
    }

    /// Each output is its own sum: non-finite and subnormal samples reach
    /// exactly the outputs whose window covers them, with the bits the
    /// one-output-at-a-time sum gives, in whichever lane of either tier's
    /// groups they fall.
    #[test]
    fn a_poisoned_sample_reaches_only_the_outputs_over_it() {
        let clean: Vec<f64> = (0..400).map(|i| (i as f64 * 0.37).sin()).collect();
        tier::each(|tier| {
            for (p, q) in [(1usize, 2usize), (2, 3), (3, 1)] {
                let resampler = Resampler::new(p, q);
                // rows around either tier's lane count (one short of a
                // group, exactly one, one over, two and a leftover) and a
                // row of many groups
                let lengths = [LANES, WIDE_LANES]
                    .into_iter()
                    .flat_map(|l| [l - 1, l, l + 1, 2 * l + 3])
                    .map(|want| length_with_interior(&resampler, want))
                    .chain([clean.len()]);
                for n in lengths {
                    // a poison early and late in the row's groups, and in
                    // its leftover
                    for at in [n / 4, n / 3, n / 2, n - n / 10, n - 1] {
                        for poison in [f64::NAN, f64::INFINITY, f64::MIN_POSITIVE / 4.0] {
                            let mut x = clean[..n].to_vec();
                            x[at] = poison;
                            let (mut out, mut phases, mut want) =
                                (Vec::new(), Vec::new(), Vec::new());
                            resampler.apply_into(&x, &mut out, &mut phases);
                            apply_into_reference(&resampler, &x, &mut want);
                            assert_eq!(out.len(), want.len());
                            for (k, (got, want)) in out.iter().zip(&want).enumerate() {
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "{tier:?}: {p}/{q} over {n}, {poison} at {at}, output {k}"
                                );
                            }
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn identity_rate() {
        let x = sine(100, 0.01);
        assert_eq!(resample(&x, 1, 1), x);
        assert_eq!(resample(&x, 3, 3), x);
    }

    #[test]
    fn output_length_is_ceil() {
        assert_eq!(resample(&vec![0.0; 100], 1, 2).len(), 50);
        assert_eq!(resample(&vec![0.0; 101], 1, 2).len(), 51);
        assert_eq!(resample(&vec![0.0; 100], 2, 1).len(), 200);
        assert_eq!(resample(&vec![0.0; 100], 2, 3).len(), 67);
    }

    #[test]
    fn downsample_preserves_low_frequency_tone() {
        // 0.01 cycles/sample tone, decimate by 2 → 0.02 cycles/sample.
        let x = sine(2000, 0.01);
        let y = resample(&x, 1, 2);
        let expect = sine(1000, 0.02);
        // Compare away from the edges (filter transients).
        for i in 100..900 {
            assert!(
                (y[i] - expect[i]).abs() < 1e-3,
                "i={i}: {} vs {}",
                y[i],
                expect[i]
            );
        }
    }

    #[test]
    fn upsample_preserves_tone() {
        let x = sine(500, 0.02);
        let y = resample(&x, 2, 1);
        let expect = sine(1000, 0.01);
        for i in 100..900 {
            assert!((y[i] - expect[i]).abs() < 1e-3, "i={i}");
        }
    }

    #[test]
    fn rational_rate_2_3() {
        let x = sine(1500, 0.01);
        let y = resample(&x, 2, 3);
        let expect = sine(1000, 0.015);
        for i in 100..900 {
            assert!((y[i] - expect[i]).abs() < 2e-3, "i={i}");
        }
    }

    #[test]
    fn decimation_removes_high_frequency() {
        // A tone above the post-decimation Nyquist must be attenuated,
        // not aliased: 0.4 cycles/sample, decimate by 4 → would alias.
        let x = sine(4000, 0.4);
        let y = decimate(&x, 4);
        let peak = y[100..y.len() - 100]
            .iter()
            .cloned()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(peak < 0.02, "aliased energy: {peak}");
    }

    #[test]
    fn dc_gain_preserved() {
        let x = vec![3.0; 1000];
        for (p, q) in [(1usize, 2usize), (2, 1), (3, 5), (5, 3)] {
            let y = resample(&x, p, q);
            let mid = y.len() / 2;
            assert!((y[mid] - 3.0).abs() < 1e-2, "p={p} q={q}: {}", y[mid]);
        }
    }

    #[test]
    fn alignment_sample_zero() {
        // output[0] corresponds to input[0] (delay compensated): for a
        // ramp the first output should be near x[0].
        let x: Vec<f64> = (0..1000).map(|i| i as f64 * 0.001).collect();
        let y = resample(&x, 1, 4);
        assert!(y[0].abs() < 0.05, "misaligned start: {}", y[0]);
        assert!((y[100] - x[400]).abs() < 0.01);
    }

    #[test]
    fn empty_input() {
        assert!(resample(&[], 2, 3).is_empty());
    }

    #[test]
    fn gcd_reduction() {
        assert_eq!(gcd(12, 8), 4);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(5, 0), 5);
    }
}
