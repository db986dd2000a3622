//! Fast Fourier transforms: one planned mixed-radix engine.
//!
//! `Das_fft` / `Das_ifft` in the paper's Table II. DAS windows are rarely
//! powers of two (a 10 s window at 500 Hz decimated 2:1 is 2500 = 2²·5⁴
//! samples, a minute is 30000 = 2⁴·3·5⁴), so the engine factors a length
//! into radix 4/2/3/5 Stockham passes and only falls back to Bluestein's
//! chirp-z convolution when a prime factor above 5 is left over. Which of
//! the two runs is decided by the factorisation of `n` alone.
//!
//! Everything a transform of one length needs — the pass list, one
//! twiddle table, for Bluestein the chirp and the spectrum of the chirp,
//! for even lengths the half-length engine of the real-input path — is
//! computed once into an immutable [`FftPlan`]. [`plan`] hands out
//! shared plans from a small bounded process-wide cache; row loops fetch
//! the plan once and call its `forward`/`inverse`/`*_real_into` methods
//! with their own scratch. [`fft`], [`ifft`], [`fft_real`] and
//! [`ifft_real`] are the allocating conveniences on top.
//!
//! A transform's passes run as one kernel on the widest instruction-set
//! tier the CPU has (`tier`). Within a pass the butterflies of a column
//! share their twiddles and are independent, so on AVX2 four of them
//! advance side by side in split real and imaginary lane arrays wherever
//! a column has four (every pass after the first, for the DAS lengths);
//! the baseline tier, and a column's last few, take them one at a time.
//! Each butterfly runs the same operations in the same order either
//! way, so every entry point has the same bits on both tiers.

use crate::complex::Complex;
use crate::tier;
use std::f64::consts::PI;
use std::sync::{Arc, Mutex, PoisonError};

/// Smallest even length ≥ `n` whose only prime factors are 2, 3 and 5 —
/// what a zero-padded transform should be padded to.
pub(crate) fn next_fast_len(n: usize) -> usize {
    let mut m = n.max(2).next_multiple_of(2);
    while Stages::radices(m).is_none() {
        m += 2;
    }
    m
}

/// `e^{−2πi·k/n}`.
fn root(k: usize, n: usize) -> Complex {
    Complex::cis(-2.0 * PI * k as f64 / n as f64)
}

/// `−i·z` for the forward transform, `+i·z` for the inverse.
#[inline(always)]
fn rot<const INV: bool>(z: Complex) -> Complex {
    if INV {
        Complex::new(-z.im, z.re)
    } else {
        Complex::new(z.im, -z.re)
    }
}

/// What a butterfly computes on: one complex value, or [`Quad`]'s four
/// side by side. Each operation is the one `Complex` does, part by part,
/// so a value has the same bits in either.
trait Value: Copy {
    fn add(self, b: Self) -> Self;
    fn sub(self, b: Self) -> Self;
    fn scale(self, k: f64) -> Self;
    /// `−i·z` for the forward transform, `+i·z` for the inverse.
    fn rot<const INV: bool>(self) -> Self;
}

impl Value for Complex {
    #[inline(always)]
    fn add(self, b: Complex) -> Complex {
        Complex::new(self.re + b.re, self.im + b.im)
    }
    #[inline(always)]
    fn sub(self, b: Complex) -> Complex {
        Complex::new(self.re - b.re, self.im - b.im)
    }
    #[inline(always)]
    fn scale(self, k: f64) -> Complex {
        Complex::new(self.re * k, self.im * k)
    }
    #[inline(always)]
    fn rot<const INV: bool>(self) -> Complex {
        rot::<INV>(self)
    }
}

/// Four complex values in split real and imaginary lane arrays: four
/// butterflies of one pass that share a twiddle advance through one
/// [`Radix::butterfly`], each lane with its own value's operations.
#[derive(Clone, Copy)]
struct Quad {
    re: [f64; 4],
    im: [f64; 4],
}

impl Quad {
    const ZERO: Quad = Quad {
        re: [0.0; 4],
        im: [0.0; 4],
    };

    /// The first four values of `z`.
    #[inline(always)]
    fn load(z: &[Complex]) -> Quad {
        let z: &[Complex; 4] = z[..4].try_into().expect("four values");
        Quad {
            re: z.map(|z| z.re),
            im: z.map(|z| z.im),
        }
    }

    /// Write the four values to the start of `z`.
    #[inline(always)]
    fn store(self, z: &mut [Complex]) {
        for (lane, z) in z[..4].iter_mut().enumerate() {
            *z = Complex::new(self.re[lane], self.im[lane]);
        }
    }

    /// `self · t` per lane, with `Complex`'s product.
    #[inline(always)]
    fn mul(self, t: Complex) -> Quad {
        Quad {
            re: std::array::from_fn(|l| self.re[l] * t.re - self.im[l] * t.im),
            im: std::array::from_fn(|l| self.re[l] * t.im + self.im[l] * t.re),
        }
    }
}

impl Value for Quad {
    #[inline(always)]
    fn add(self, b: Quad) -> Quad {
        Quad {
            re: std::array::from_fn(|l| self.re[l] + b.re[l]),
            im: std::array::from_fn(|l| self.im[l] + b.im[l]),
        }
    }
    #[inline(always)]
    fn sub(self, b: Quad) -> Quad {
        Quad {
            re: std::array::from_fn(|l| self.re[l] - b.re[l]),
            im: std::array::from_fn(|l| self.im[l] - b.im[l]),
        }
    }
    #[inline(always)]
    fn scale(self, k: f64) -> Quad {
        Quad {
            re: self.re.map(|v| v * k),
            im: self.im.map(|v| v * k),
        }
    }
    #[inline(always)]
    fn rot<const INV: bool>(self) -> Quad {
        if INV {
            Quad {
                re: self.im.map(|v| -v),
                im: self.re,
            }
        } else {
            Quad {
                re: self.im,
                im: self.re.map(|v| -v),
            }
        }
    }
}

/// One butterfly size of the engine.
trait Radix {
    const R: usize;
    /// DFT of the first `R` entries of `a`, in place; `INV` flips the
    /// sign of the exponent.
    fn butterfly<V: Value, const INV: bool>(a: &mut [V; 5]);
}

struct R2;
struct R3;
struct R4;
struct R5;

impl Radix for R2 {
    const R: usize = 2;
    #[inline(always)]
    fn butterfly<V: Value, const INV: bool>(a: &mut [V; 5]) {
        (a[0], a[1]) = (a[0].add(a[1]), a[0].sub(a[1]));
    }
}

impl Radix for R3 {
    const R: usize = 3;
    #[inline(always)]
    fn butterfly<V: Value, const INV: bool>(a: &mut [V; 5]) {
        const SIN_3: f64 = 0.866_025_403_784_438_6; // sin(2π/3)
        let sum = a[1].add(a[2]);
        let mid = a[0].sub(sum.scale(0.5));
        let turn = a[1].sub(a[2]).scale(SIN_3).rot::<INV>();
        a[0] = a[0].add(sum);
        a[1] = mid.add(turn);
        a[2] = mid.sub(turn);
    }
}

impl Radix for R4 {
    const R: usize = 4;
    #[inline(always)]
    fn butterfly<V: Value, const INV: bool>(a: &mut [V; 5]) {
        let (s02, d02) = (a[0].add(a[2]), a[0].sub(a[2]));
        let (s13, d13) = (a[1].add(a[3]), a[1].sub(a[3]).rot::<INV>());
        a[0] = s02.add(s13);
        a[1] = d02.add(d13);
        a[2] = s02.sub(s13);
        a[3] = d02.sub(d13);
    }
}

impl Radix for R5 {
    const R: usize = 5;
    #[inline(always)]
    fn butterfly<V: Value, const INV: bool>(a: &mut [V; 5]) {
        const COS_1: f64 = 0.309_016_994_374_947_45; // cos(2π/5)
        const COS_2: f64 = -0.809_016_994_374_947_5; // cos(4π/5)
        const SIN_1: f64 = 0.951_056_516_295_153_5; // sin(2π/5)
        const SIN_2: f64 = 0.587_785_252_292_473_1; // sin(4π/5)
        let (s14, d14) = (a[1].add(a[4]), a[1].sub(a[4]));
        let (s23, d23) = (a[2].add(a[3]), a[2].sub(a[3]));
        let mid1 = a[0].add(s14.scale(COS_1)).add(s23.scale(COS_2));
        let mid2 = a[0].add(s14.scale(COS_2)).add(s23.scale(COS_1));
        let turn1 = d14.scale(SIN_1).add(d23.scale(SIN_2)).rot::<INV>();
        let turn2 = d14.scale(SIN_2).sub(d23.scale(SIN_1)).rot::<INV>();
        a[0] = a[0].add(s14).add(s23);
        a[1] = mid1.add(turn1);
        a[2] = mid2.add(turn2);
        a[3] = mid2.sub(turn2);
        a[4] = mid1.sub(turn1);
    }
}

/// One decimation-in-frequency Stockham pass of radix `B::R` from `x`
/// into `y`. `s` is the product of the radices of the passes before it
/// (the run of adjacent elements that share a twiddle); `tw` holds, for
/// each of the `x.len() / (R·s)` butterfly columns, the `R − 1` twiddles
/// of its outputs 1..R. On the AVX2 tier (`WIDE`) a column's butterflies
/// advance four at a time, as a [`Quad`], while four are left; the rest,
/// and every butterfly on the baseline tier, go one at a time.
#[inline(always)]
fn pass<B: Radix, const INV: bool, const WIDE: bool>(
    x: &[Complex],
    y: &mut [Complex],
    s: usize,
    tw: &[Complex],
) {
    let r = B::R;
    let m = x.len() / (r * s);
    let columns = y.chunks_exact_mut(r * s).zip(tw.chunks_exact(r - 1));
    for (p, (y_col, w)) in columns.enumerate() {
        let mut legs: [&[Complex]; 5] = [&[]; 5];
        for (j, leg) in legs.iter_mut().enumerate().take(r) {
            *leg = &x[s * (p + m * j)..][..s];
        }
        let mut t = [Complex::ZERO; 4];
        for (t, &w) in t.iter_mut().zip(w) {
            *t = if INV { w.conj() } else { w };
        }
        let quads = if WIDE { s - s % 4 } else { 0 };
        for q in (0..quads).step_by(4) {
            let mut a = [Quad::ZERO; 5];
            for j in 0..r {
                a[j] = Quad::load(&legs[j][q..]);
            }
            B::butterfly::<Quad, INV>(&mut a);
            a[0].store(&mut y_col[q..]);
            for k in 1..r {
                a[k].mul(t[k - 1]).store(&mut y_col[q + s * k..]);
            }
        }
        for q in quads..s {
            let mut a = [Complex::ZERO; 5];
            for j in 0..r {
                a[j] = legs[j][q];
            }
            B::butterfly::<Complex, INV>(&mut a);
            y_col[q] = a[0];
            for k in 1..r {
                y_col[q + s * k] = a[k] * t[k - 1];
            }
        }
    }
}

/// The pass list and twiddle table of a 5-smooth length.
#[derive(Debug)]
struct Stages {
    n: usize,
    /// `(radix, offset of the pass's twiddles)` in execution order.
    passes: Vec<(usize, usize)>,
    twiddles: Vec<Complex>,
}

impl Stages {
    /// `n` as a product of 4s, then 2, 3s and 5s; `None` when a larger
    /// prime factor is left.
    fn radices(n: usize) -> Option<Vec<usize>> {
        let (mut rest, mut out) = (n, Vec::new());
        for r in [4, 2, 3, 5] {
            while rest.is_multiple_of(r) {
                out.push(r);
                rest /= r;
            }
        }
        (rest == 1).then_some(out)
    }

    fn new(n: usize) -> Option<Stages> {
        let radices = Stages::radices(n)?;
        let mut passes = Vec::with_capacity(radices.len());
        let mut twiddles = Vec::new();
        let mut len = n;
        for r in radices {
            passes.push((r, twiddles.len()));
            let m = len / r;
            for p in 0..m {
                twiddles.extend((1..r).map(|k| root(p * k, len)));
            }
            len = m;
        }
        Some(Stages {
            n,
            passes,
            twiddles,
        })
    }

    /// Unnormalised transform of `data` in place; `scratch` is the other
    /// half of the ping-pong and must hold `n` elements.
    fn run<const INV: bool>(&self, data: &mut [Complex], scratch: &mut [Complex]) {
        #[cfg(test)]
        if tests::ONE_AT_A_TIME.get() {
            return self.run_reference::<INV>(data, scratch);
        }
        tier::run(Passes::<INV> {
            stages: self,
            data,
            scratch,
        });
    }
}

/// [`Stages::run`]'s passes as a [`tier::Kernel`]: every pass of the
/// transform runs in the tier's copy.
struct Passes<'a, const INV: bool> {
    stages: &'a Stages,
    data: &'a mut [Complex],
    scratch: &'a mut [Complex],
}

impl<const INV: bool> tier::Kernel for Passes<'_, INV> {
    type Output = ();

    #[inline(always)]
    fn run<const WIDE: bool>(self) {
        let Passes {
            stages,
            data,
            scratch,
        } = self;
        let (mut src, mut dst) = (data, &mut scratch[..stages.n]);
        let mut s = 1;
        for &(r, at) in &stages.passes {
            let tw = &stages.twiddles[at..];
            match r {
                2 => pass::<R2, INV, WIDE>(src, dst, s, tw),
                3 => pass::<R3, INV, WIDE>(src, dst, s, tw),
                4 => pass::<R4, INV, WIDE>(src, dst, s, tw),
                _ => pass::<R5, INV, WIDE>(src, dst, s, tw),
            }
            std::mem::swap(&mut src, &mut dst);
            s *= r;
        }
        if stages.passes.len() % 2 == 1 {
            // the result sits in `scratch`; `dst` is `data` again
            dst.copy_from_slice(src);
        }
    }
}

/// Bluestein's algorithm for lengths the radix set cannot factor: the
/// DFT as a convolution with a chirp, evaluated with two smooth-length
/// transforms (the chirp's own spectrum is part of the plan).
#[derive(Debug)]
struct Bluestein {
    inner: Stages,
    /// `e^{−iπk²/n}` for `k < n`.
    chirp: Vec<Complex>,
    /// Spectrum of the conjugate chirp wrapped to the inner length,
    /// already divided by it.
    kernel: Vec<Complex>,
}

impl Bluestein {
    fn new(n: usize) -> Bluestein {
        let m = next_fast_len(2 * n - 1);
        let inner = Stages::new(m).expect("next_fast_len is 5-smooth");
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                // k² mod 2n in u128: k² overflows u64 past n = 2³².
                let k2 = (k as u128 * k as u128) % (2 * n as u128);
                Complex::cis(-PI * k2 as f64 / n as f64)
            })
            .collect();
        let mut kernel = vec![Complex::ZERO; m];
        kernel[0] = chirp[0].conj();
        for k in 1..n {
            kernel[k] = chirp[k].conj();
            kernel[m - k] = kernel[k];
        }
        inner.run::<false>(&mut kernel, &mut vec![Complex::ZERO; m]);
        let scale = 1.0 / m as f64;
        for v in &mut kernel {
            *v = v.scale(scale);
        }
        Bluestein {
            inner,
            chirp,
            kernel,
        }
    }

    /// Unnormalised transform of `data` in place; `scratch` must hold
    /// twice the inner length. The inverse is the conjugate of the
    /// forward transform of the conjugate.
    fn run<const INV: bool>(&self, data: &mut [Complex], scratch: &mut [Complex]) {
        let flip = |z: Complex| if INV { z.conj() } else { z };
        let (a, rest) = scratch.split_at_mut(self.inner.n);
        let (head, tail) = a.split_at_mut(data.len());
        for ((slot, &x), &c) in head.iter_mut().zip(data.iter()).zip(&self.chirp) {
            *slot = flip(x) * c;
        }
        tail.fill(Complex::ZERO);
        self.inner.run::<false>(a, rest);
        for (v, &k) in a.iter_mut().zip(&self.kernel) {
            *v *= k;
        }
        self.inner.run::<true>(a, rest);
        for ((x, &v), &c) in data.iter_mut().zip(a.iter()).zip(&self.chirp) {
            *x = flip(v * c);
        }
    }
}

/// A complex transform of one length: radix passes when the length is
/// 5-smooth, Bluestein otherwise.
#[derive(Debug)]
enum Engine {
    Smooth(Stages),
    Bluestein(Bluestein),
}

impl Engine {
    fn new(n: usize) -> Engine {
        match Stages::new(n) {
            Some(stages) => Engine::Smooth(stages),
            None => Engine::Bluestein(Bluestein::new(n)),
        }
    }

    fn scratch_len(&self) -> usize {
        match self {
            Engine::Smooth(s) => s.n,
            Engine::Bluestein(b) => 2 * b.inner.n,
        }
    }

    fn table_len(&self) -> usize {
        match self {
            Engine::Smooth(s) => s.twiddles.len(),
            Engine::Bluestein(b) => b.inner.twiddles.len() + b.chirp.len() + b.kernel.len(),
        }
    }

    fn run<const INV: bool>(&self, data: &mut [Complex], scratch: &mut [Complex]) {
        match self {
            Engine::Smooth(s) => s.run::<INV>(data, scratch),
            Engine::Bluestein(b) => b.run::<INV>(data, scratch),
        }
    }
}

/// Everything needed to transform signals of one length, computed once.
///
/// Immutable after construction and `Send + Sync`: any number of threads
/// may transform through one plan at once, each with its own scratch of
/// at least [`scratch_len`](FftPlan::scratch_len) elements. The contents
/// of the scratch before a call do not matter and its contents after are
/// unspecified.
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    engine: Engine,
    /// Even `n` only: the engine of length `n/2` and `e^{−2πik/n}` for
    /// `k ≤ n/4`, which carry a real signal through a half-length
    /// complex transform.
    half: Option<(Engine, Vec<Complex>)>,
    scratch_len: usize,
}

impl FftPlan {
    /// Build the plan for length `n` (not cached — see [`plan`]).
    ///
    /// # Panics
    /// Panics when `n` is zero.
    pub fn new(n: usize) -> FftPlan {
        assert!(n > 0, "an FFT plan needs a positive length");
        let engine = Engine::new(n);
        let half = n.is_multiple_of(2).then(|| {
            let h = n / 2;
            (Engine::new(h), (0..=h / 2).map(|k| root(k, n)).collect())
        });
        let scratch_len = match &half {
            Some((half_engine, _)) => engine.scratch_len().max(n / 2 + half_engine.scratch_len()),
            None => n + engine.scratch_len(),
        };
        FftPlan {
            n,
            engine,
            half,
            scratch_len,
        }
    }

    /// Scratch elements every entry point of this plan needs.
    pub fn scratch_len(&self) -> usize {
        self.scratch_len
    }

    /// Heap bytes the plan's tables hold (what the cache budgets).
    fn bytes(&self) -> usize {
        let half = self
            .half
            .as_ref()
            .map_or(0, |(engine, tw)| engine.table_len() + tw.len());
        (self.engine.table_len() + half) * std::mem::size_of::<Complex>()
    }

    fn check(&self, len: usize, scratch: &[Complex]) {
        assert_eq!(len, self.n, "signal length differs from the plan's");
        assert!(
            scratch.len() >= self.scratch_len,
            "FFT scratch holds {} elements, the plan needs {}",
            scratch.len(),
            self.scratch_len
        );
    }

    /// Forward DFT of `data` in place (unscaled, like MATLAB `fft`).
    ///
    /// # Panics
    /// Every transform method panics when a slice is not of the plan's
    /// length or `scratch` is shorter than `scratch_len()`.
    pub fn forward(&self, data: &mut [Complex], scratch: &mut [Complex]) {
        self.check(data.len(), scratch);
        self.engine.run::<false>(data, scratch);
    }

    /// Inverse DFT of `data` in place, scaled by `1/n` (MATLAB `ifft`).
    pub fn inverse(&self, data: &mut [Complex], scratch: &mut [Complex]) {
        self.check(data.len(), scratch);
        self.engine.run::<true>(data, scratch);
        let scale = 1.0 / self.n as f64;
        for v in data {
            *v = v.scale(scale);
        }
    }

    /// Forward DFT of the real signal `x` into `out`, the full
    /// conjugate-symmetric spectrum. An even length goes through one
    /// complex transform of half the length.
    pub fn forward_real_into(&self, x: &[f64], out: &mut [Complex], scratch: &mut [Complex]) {
        self.check(x.len(), scratch);
        assert_eq!(out.len(), self.n, "spectrum length differs from the plan's");
        let Some((half_engine, tw)) = &self.half else {
            for (slot, &v) in out.iter_mut().zip(x) {
                *slot = Complex::real(v);
            }
            return self.engine.run::<false>(out, scratch);
        };
        // z[k] = x[2k] + i·x[2k+1]; with Z = DFT(z), E and O the spectra
        // of the even and odd samples, Z = E + i·O and
        // X[k] = E[k] + e^{−2πik/n}·O[k].
        let (n, h) = (self.n, self.n / 2);
        for (slot, pair) in out.iter_mut().zip(x.chunks_exact(2)) {
            *slot = Complex::new(pair[0], pair[1]);
        }
        half_engine.run::<false>(&mut out[..h], scratch);
        let z0 = out[0];
        out[0] = Complex::real(z0.re + z0.im);
        out[h] = Complex::real(z0.re - z0.im);
        for k in 1..=h / 2 {
            let (a, b) = (out[k], out[h - k]);
            let even = (a + b.conj()).scale(0.5);
            let odd = rot::<false>((a - b.conj()).scale(0.5)) * tw[k];
            out[k] = even + odd;
            out[h - k] = (even - odd).conj();
        }
        for k in 1..h {
            out[n - k] = out[k].conj();
        }
    }

    /// Real part of the inverse DFT of `spec`, scaled by `1/n`, into
    /// `out` — the whole inverse when `spec` is conjugate-symmetric, as
    /// the spectrum of a real signal is. An even length goes through one
    /// complex transform of half the length.
    pub fn inverse_real_into(&self, spec: &[Complex], out: &mut [f64], scratch: &mut [Complex]) {
        self.check(spec.len(), scratch);
        assert_eq!(out.len(), self.n, "signal length differs from the plan's");
        let n = self.n;
        let Some((half_engine, tw)) = &self.half else {
            let (z, rest) = scratch.split_at_mut(n);
            z.copy_from_slice(spec);
            self.engine.run::<true>(z, rest);
            let scale = 1.0 / n as f64;
            for (slot, v) in out.iter_mut().zip(z.iter()) {
                *slot = v.re * scale;
            }
            return;
        };
        // The real part of the inverse is the inverse of the spectrum's
        // conjugate-symmetric part S. From S, the spectra of the even and
        // odd samples are E[k] = (S[k] + S[k+h])/2 and
        // O[k] = (S[k] − S[k+h])/2 · e^{+2πik/n}; the half-length inverse
        // of E + i·O interleaves the two sample streams.
        let h = n / 2;
        let sym = |k: usize| (spec[k] + spec[n - k].conj()).scale(0.5);
        let (z, rest) = scratch.split_at_mut(h);
        z[0] = Complex::new(spec[0].re + spec[h].re, spec[0].re - spec[h].re).scale(0.5);
        for k in 1..=h / 2 {
            let (a, b) = (sym(k), sym(h - k).conj());
            let even = (a + b).scale(0.5);
            let odd = rot::<true>((a - b).scale(0.5)) * tw[k].conj();
            z[k] = even + odd;
            z[h - k] = (even - odd).conj();
        }
        half_engine.run::<true>(z, rest);
        let scale = 1.0 / h as f64;
        for (pair, v) in out.chunks_exact_mut(2).zip(z.iter()) {
            pair[0] = v.re * scale;
            pair[1] = v.im * scale;
        }
    }
}

/// Most plans the process-wide cache holds at once.
const CACHE_MAX_PLANS: usize = 16;
/// Most table bytes the process-wide cache holds at once; a plan larger
/// than this is built, used and dropped without being cached.
const CACHE_MAX_BYTES: usize = 4 << 20;

/// Least-recently-used cache of plans by length.
struct PlanCache {
    clock: u64,
    bytes: usize,
    /// `(last use, plan)`.
    slots: Vec<(u64, Arc<FftPlan>)>,
}

impl PlanCache {
    const fn new() -> PlanCache {
        PlanCache {
            clock: 0,
            bytes: 0,
            slots: Vec::new(),
        }
    }

    fn get(&mut self, n: usize) -> Option<Arc<FftPlan>> {
        self.clock += 1;
        let slot = self.slots.iter_mut().find(|(_, p)| p.n == n)?;
        slot.0 = self.clock;
        Some(Arc::clone(&slot.1))
    }

    /// Cache `plan` unless its length is already held (two threads built
    /// it at once: both get the cached one); returns the plan to use.
    fn insert(&mut self, plan: Arc<FftPlan>) -> Arc<FftPlan> {
        if let Some(held) = self.get(plan.n) {
            return held;
        }
        let bytes = plan.bytes();
        if bytes > CACHE_MAX_BYTES {
            return plan;
        }
        while self.slots.len() >= CACHE_MAX_PLANS || self.bytes + bytes > CACHE_MAX_BYTES {
            let oldest = (0..self.slots.len())
                .min_by_key(|&i| self.slots[i].0)
                .expect("an over-full cache has a slot");
            self.bytes -= self.slots.swap_remove(oldest).1.bytes();
        }
        self.bytes += bytes;
        self.slots.push((self.clock, Arc::clone(&plan)));
        plan
    }
}

static CACHE: Mutex<PlanCache> = Mutex::new(PlanCache::new());

/// The shared plan for length `n`, from the process-wide cache.
///
/// The cache holds at most 16 plans and 4 MiB of tables, least recently
/// used out first; a plan is a deterministic function of `n`, so what a
/// transform returns does not depend on whether its plan was cached,
/// rebuilt after an eviction, or built by another thread. The lock is
/// held for the lookup only, never while a plan is built: fetch the plan
/// once per loop, not once per row.
///
/// # Panics
/// Panics when `n` is zero.
pub fn plan(n: usize) -> Arc<FftPlan> {
    // Every cache update leaves it valid, so a panic elsewhere while the
    // lock was held cannot have broken it.
    let lock = || CACHE.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(held) = lock().get(n) {
        return held;
    }
    let built = Arc::new(FftPlan::new(n));
    lock().insert(built)
}

/// Forward DFT of arbitrary length (unscaled, like MATLAB `fft`).
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let mut data = input.to_vec();
    if !data.is_empty() {
        let plan = plan(data.len());
        plan.forward(&mut data, &mut vec![Complex::ZERO; plan.scratch_len()]);
    }
    data
}

/// Inverse DFT of arbitrary length, scaled by `1/n` (like MATLAB `ifft`).
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let mut data = input.to_vec();
    if !data.is_empty() {
        let plan = plan(data.len());
        plan.inverse(&mut data, &mut vec![Complex::ZERO; plan.scratch_len()]);
    }
    data
}

/// Forward DFT of a real signal; returns the full complex spectrum.
pub fn fft_real(input: &[f64]) -> Vec<Complex> {
    let mut out = vec![Complex::ZERO; input.len()];
    if !input.is_empty() {
        let plan = plan(input.len());
        let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
        plan.forward_real_into(input, &mut out, &mut scratch);
    }
    out
}

/// Inverse DFT returning only real parts — for spectra known to be
/// conjugate-symmetric (e.g. produced from real signals).
pub fn ifft_real(input: &[Complex]) -> Vec<f64> {
    let mut out = vec![0.0; input.len()];
    if !input.is_empty() {
        let plan = plan(input.len());
        let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
        plan.inverse_real_into(input, &mut out, &mut scratch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::Barrier;

    thread_local! {
        /// Whether [`Stages::run`] takes the one-at-a-time reference
        /// passes on this thread.
        pub(super) static ONE_AT_A_TIME: Cell<bool> = const { Cell::new(false) };
    }

    /// The one-butterfly-at-a-time pass the four-lane one replaced, kept
    /// as the bit-exact reference.
    fn pass_reference<B: Radix, const INV: bool>(
        x: &[Complex],
        y: &mut [Complex],
        s: usize,
        tw: &[Complex],
    ) {
        let r = B::R;
        let m = x.len() / (r * s);
        let columns = y.chunks_exact_mut(r * s).zip(tw.chunks_exact(r - 1));
        for (p, (y_col, w)) in columns.enumerate() {
            let mut legs: [&[Complex]; 5] = [&[]; 5];
            for (j, leg) in legs.iter_mut().enumerate().take(r) {
                *leg = &x[s * (p + m * j)..][..s];
            }
            for q in 0..s {
                let mut a = [Complex::ZERO; 5];
                for j in 0..r {
                    a[j] = legs[j][q];
                }
                B::butterfly::<Complex, INV>(&mut a);
                y_col[q] = a[0];
                for k in 1..r {
                    let t = if INV { w[k - 1].conj() } else { w[k - 1] };
                    y_col[q + s * k] = a[k] * t;
                }
            }
        }
    }

    impl Stages {
        /// [`Stages::run`] through [`pass_reference`].
        pub(super) fn run_reference<const INV: bool>(
            &self,
            data: &mut [Complex],
            scratch: &mut [Complex],
        ) {
            let (mut src, mut dst) = (data, &mut scratch[..self.n]);
            let mut s = 1;
            for &(r, at) in &self.passes {
                let tw = &self.twiddles[at..];
                match r {
                    2 => pass_reference::<R2, INV>(src, dst, s, tw),
                    3 => pass_reference::<R3, INV>(src, dst, s, tw),
                    4 => pass_reference::<R4, INV>(src, dst, s, tw),
                    _ => pass_reference::<R5, INV>(src, dst, s, tw),
                }
                std::mem::swap(&mut src, &mut dst);
                s *= r;
            }
            if self.passes.len() % 2 == 1 {
                dst.copy_from_slice(src);
            }
        }
    }

    /// `plan`'s four entry points over fixed inputs: the bits of
    /// `forward`, `inverse`, `forward_real_into` and `inverse_real_into`
    /// (of a spectrum that is not conjugate-symmetric).
    fn entry_point_bits(plan: &FftPlan) -> [Vec<(u64, u64)>; 4] {
        let n = plan.n;
        let mut scratch = vec![Complex::new(f64::NAN, 7.0); plan.scratch_len()];
        let mut forward = ramp(n);
        plan.forward(&mut forward, &mut scratch);
        let mut inverse = ramp(n);
        plan.inverse(&mut inverse, &mut scratch);
        let mut spec = vec![Complex::ZERO; n];
        plan.forward_real_into(&real_ramp(n), &mut spec, &mut scratch);
        let mut back = vec![0.0; n];
        plan.inverse_real_into(&ramp(n), &mut back, &mut scratch);
        let back: Vec<(u64, u64)> = back.iter().map(|v| (v.to_bits(), 0)).collect();
        [bits(&forward), bits(&inverse), bits(&spec), back]
    }

    /// The four-lane passes give every entry point the bits of the
    /// one-at-a-time passes, on each tier: lengths whose runs `s` stay
    /// under four, reach it, and pass it in multiples of four (24 =
    /// 4·2·3 runs 1, 4, 8) and with a remainder (1250 = 2·5⁴ runs 1, 2,
    /// 10, 50, 250), the DAS lengths, and a Bluestein length.
    #[test]
    fn every_entry_point_has_the_one_at_a_time_bits() {
        let lengths = [
            1usize,
            2,
            3,
            4,
            5,
            8,
            24,
            120,
            768,
            1250,
            3000,
            6000,
            30000,
            2 * 3 * 5 * 7 * 11,
        ];
        for n in lengths {
            // a Bluestein plan transforms its chirp as it is built
            ONE_AT_A_TIME.set(true);
            let want = entry_point_bits(&FftPlan::new(n));
            ONE_AT_A_TIME.set(false);
            let plan = FftPlan::new(n);
            tier::each(|tier| {
                let got = entry_point_bits(&plan);
                for (what, (got, want)) in [
                    "forward",
                    "inverse",
                    "forward_real_into",
                    "inverse_real_into",
                ]
                .iter()
                .zip(got.iter().zip(&want))
                {
                    assert!(got == want, "{tier:?}: {what} of {n} points");
                }
            });
        }
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() < tol, "bin {k}: {x:?} != {y:?}");
        }
    }

    fn bits(v: &[Complex]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// O(n) reference for bins `ks` of the DFT, O(n²) for all of them.
    fn dft_bins(input: &[Complex], ks: impl Iterator<Item = usize>) -> Vec<Complex> {
        let n = input.len();
        let roots: Vec<Complex> = (0..n).map(|j| root(j, n)).collect();
        ks.map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &x) in input.iter().enumerate() {
                acc += x * roots[k * j % n];
            }
            acc
        })
        .collect()
    }

    fn dft_naive(input: &[Complex]) -> Vec<Complex> {
        dft_bins(input, 0..input.len())
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin() - 0.2, (i as f64 * 0.11).cos()))
            .collect()
    }

    fn real_ramp(n: usize) -> Vec<f64> {
        ramp(n).iter().map(|z| z.re + 0.5 * z.im).collect()
    }

    #[test]
    fn matches_naive_dft_on_every_small_and_the_das_lengths() {
        let smooth = [625usize, 1250, 2500, 3000];
        let rough = [7usize, 11, 13, 127, 2501];
        for n in (1..=256).chain(smooth).chain(rough) {
            let x = ramp(n);
            assert_close(&fft(&x), &dft_naive(&x), 1e-11 * n as f64);
        }
    }

    #[test]
    fn matches_naive_dft_on_sampled_bins_of_long_lengths() {
        for n in [6000usize, 7500, 30000, 4999] {
            let x = ramp(n);
            let ks = (0..64).map(|i| i * (n - 1) / 63);
            let got = fft(&x);
            let want = dft_bins(&x, ks.clone());
            let got: Vec<Complex> = ks.map(|k| got[k]).collect();
            assert_close(&got, &want, 1e-11 * n as f64);
        }
    }

    #[test]
    fn engine_choice_follows_the_factorisation() {
        for n in [1usize, 2, 4, 8, 30, 2500, 6000, 30000, 32768] {
            assert!(matches!(Engine::new(n), Engine::Smooth(_)), "{n}");
        }
        for n in [7usize, 14, 127, 2501, 4999] {
            assert!(matches!(Engine::new(n), Engine::Bluestein(_)), "{n}");
        }
    }

    #[test]
    fn bluestein_agrees_with_the_radix_passes_on_smooth_lengths() {
        for n in [1usize, 2, 3, 4, 5, 6, 16, 30, 100, 243, 625, 1024, 2500] {
            let x = ramp(n);
            let chirp = Bluestein::new(n);
            let mut scratch = vec![Complex::ZERO; 2 * chirp.inner.n];
            let mut forward = x.clone();
            chirp.run::<false>(&mut forward, &mut scratch);
            assert_close(&forward, &fft(&x), 1e-11 * n as f64);
            let mut inverse = x.clone();
            chirp.run::<true>(&mut inverse, &mut scratch);
            let want: Vec<Complex> = ifft(&x).iter().map(|z| z.scale(n as f64)).collect();
            assert_close(&inverse, &want, 1e-11 * n as f64);
        }
    }

    #[test]
    fn round_trip_identity() {
        for n in [1usize, 2, 7, 16, 30, 101, 2500, 2501] {
            let x = ramp(n);
            assert_close(&ifft(&fft(&x)), &x, 1e-12 * n as f64);
        }
    }

    #[test]
    fn real_path_equals_the_complex_path() {
        // even (half-length trick), odd (plain), and both engines
        for n in [
            1usize, 2, 3, 4, 6, 9, 10, 14, 15, 22, 127, 254, 1250, 2500, 2501, 5002,
        ] {
            let x = real_ramp(n);
            let as_complex: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
            let spec = fft_real(&x);
            assert_close(&spec, &fft(&as_complex), 1e-11 * n as f64);
            let back = ifft_real(&spec);
            for (a, b) in back.iter().zip(&x) {
                assert!((a - b).abs() < 1e-12 * n as f64, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn inverse_real_is_the_real_part_of_the_inverse_for_any_spectrum() {
        for n in [1usize, 2, 5, 8, 14, 30, 127, 250] {
            let spec = ramp(n); // not conjugate-symmetric
            let want = ifft(&spec);
            for (a, b) in ifft_real(&spec).iter().zip(&want) {
                assert!(
                    (a - b.re).abs() < 1e-13 * n as f64,
                    "n={n}: {a} vs {}",
                    b.re
                );
            }
        }
    }

    #[test]
    fn scratch_entry_points_equal_the_allocating_ones() {
        for n in [1usize, 2, 9, 64, 127, 250, 2500] {
            let plan = FftPlan::new(n);
            // dirty scratch: its contents must not matter
            let mut scratch = vec![Complex::new(f64::NAN, 7.0); plan.scratch_len() + 3];
            let x = ramp(n);
            let mut data = x.clone();
            plan.forward(&mut data, &mut scratch);
            assert_eq!(bits(&data), bits(&fft(&x)));
            plan.inverse(&mut data, &mut scratch);
            assert_eq!(bits(&data), bits(&ifft(&fft(&x))));

            let r = real_ramp(n);
            let mut spec = vec![Complex::ZERO; n];
            plan.forward_real_into(&r, &mut spec, &mut scratch);
            assert_eq!(bits(&spec), bits(&fft_real(&r)));
            let mut back = vec![0.0; n];
            plan.inverse_real_into(&spec, &mut back, &mut scratch);
            assert_eq!(back, ifft_real(&spec));
        }
    }

    #[test]
    #[should_panic(expected = "the plan needs")]
    fn short_scratch_is_rejected() {
        let plan = FftPlan::new(12);
        plan.forward(
            &mut ramp(12),
            &mut vec![Complex::ZERO; plan.scratch_len() - 1],
        );
    }

    #[test]
    #[should_panic(expected = "length differs")]
    fn wrong_length_is_rejected() {
        let plan = FftPlan::new(12);
        plan.forward(&mut ramp(10), &mut vec![Complex::ZERO; plan.scratch_len()]);
    }

    fn held(n: usize) -> Option<Arc<FftPlan>> {
        let cache = CACHE.lock().unwrap();
        cache
            .slots
            .iter()
            .find(|(_, p)| p.n == n)
            .map(|(_, p)| Arc::clone(p))
    }

    /// The process-wide cache is shared with every other test of this
    /// binary, so these check what must hold whatever they do.
    #[test]
    fn output_does_not_depend_on_the_cache_state() {
        let n = 1234; // no other test uses it
        let x = real_ramp(n);
        let cold = fft_real(&x);
        let first = plan(n);
        assert_eq!(bits(&fft_real(&x)), bits(&cold), "warm");
        // push it out with more lengths than the cache has slots
        for other in 0..2 * CACHE_MAX_PLANS {
            plan(3000 + other);
        }
        assert!(
            held(n).is_none(),
            "still cached after {} others",
            2 * CACHE_MAX_PLANS
        );
        assert_eq!(bits(&fft_real(&x)), bits(&cold), "rebuilt");
        assert!(!Arc::ptr_eq(&first, &plan(n)));
        // …and not on whether the plan came from the cache at all
        let uncached = FftPlan::new(n);
        let mut spec = vec![Complex::ZERO; n];
        uncached.forward_real_into(
            &x,
            &mut spec,
            &mut vec![Complex::ZERO; uncached.scratch_len()],
        );
        assert_eq!(bits(&spec), bits(&cold));
    }

    #[test]
    fn concurrent_requests_agree_with_sequential_ones() {
        // threads 0 and 1 ask for one length, 2 and 3 for two others,
        // released together so plan construction and insertion race
        let lengths = [1236usize, 1236, 1238, 1240];
        let want: Vec<Vec<(u64, u64)>> = lengths
            .iter()
            .map(|&n| {
                let plan = FftPlan::new(n);
                let mut spec = vec![Complex::ZERO; n];
                let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
                plan.forward_real_into(&real_ramp(n), &mut spec, &mut scratch);
                bits(&spec)
            })
            .collect();
        for _round in 0..8 {
            let barrier = Barrier::new(lengths.len());
            let got: Vec<Vec<(u64, u64)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = lengths
                    .iter()
                    .map(|&n| {
                        let barrier = &barrier;
                        scope.spawn(move || {
                            let x = real_ramp(n);
                            barrier.wait();
                            bits(&fft_real(&x))
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(got, want);
            // evict, so the next round races on construction again
            for other in 0..2 * CACHE_MAX_PLANS {
                plan(5000 + other);
            }
        }
    }

    #[test]
    fn cache_stays_inside_its_caps() {
        let check = |cache: &PlanCache| {
            assert!(cache.slots.len() <= CACHE_MAX_PLANS);
            assert!(cache.bytes <= CACHE_MAX_BYTES);
            let sum: usize = cache.slots.iter().map(|(_, p)| p.bytes()).sum();
            assert_eq!(cache.bytes, sum);
        };
        // a private cache: entry cap, then byte cap, then an oversized plan
        let mut cache = PlanCache::new();
        for n in 100..100 + 3 * CACHE_MAX_PLANS {
            let inserted = cache.insert(Arc::new(FftPlan::new(n)));
            assert!(cache.get(n).is_some_and(|p| Arc::ptr_eq(&p, &inserted)));
            check(&cache);
        }
        assert_eq!(cache.slots.len(), CACHE_MAX_PLANS);
        let big = [
            65_536usize,
            62_500,
            64_000,
            64_800,
            65_610,
            61_440,
            60_000,
            62_208,
        ];
        for n in big {
            let plan = Arc::new(FftPlan::new(n));
            assert!(plan.bytes() < CACHE_MAX_BYTES && 3 * plan.bytes() > CACHE_MAX_BYTES);
            cache.insert(plan);
            check(&cache);
        }
        let held = cache.slots.iter().filter(|(_, p)| p.n >= 60_000).count();
        assert!(
            held == 1 || held == 2,
            "the byte cap, not the entry cap, bounds these"
        );
        let huge = Arc::new(FftPlan::new(1 << 19));
        assert!(huge.bytes() > CACHE_MAX_BYTES);
        let before = cache.slots.len();
        cache.insert(huge);
        assert!(
            cache.get(1 << 19).is_none(),
            "oversized plans are not cached"
        );
        assert_eq!(cache.slots.len(), before);
        // the shared one, after whatever the other tests did to it
        plan(777);
        check(&CACHE.lock().unwrap());
    }

    #[test]
    fn least_recently_used_goes_first() {
        let mut cache = PlanCache::new();
        for n in 1..=CACHE_MAX_PLANS {
            cache.insert(Arc::new(FftPlan::new(n)));
        }
        cache.get(1); // 1 is now the most recent; 2 the oldest
        cache.insert(Arc::new(FftPlan::new(99)));
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some() && cache.get(99).is_some());
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 240;
        let x = ramp(n);
        let spec = fft(&x);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-10 * time_energy.max(1.0));
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        for bin in fft(&x) {
            assert!((bin - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_hits_one_bin() {
        let n = 60;
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|j| Complex::cis(2.0 * PI * (k0 * j) as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        for (k, bin) in spec.iter().enumerate() {
            if k == k0 {
                assert!((bin.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(bin.abs() < 1e-9, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn real_signal_spectrum_is_conjugate_symmetric() {
        let x: Vec<f64> = (0..30).map(|i| (i as f64 * 0.7).cos() + 0.3).collect();
        let spec = fft_real(&x);
        let n = spec.len();
        for k in 1..n {
            assert_eq!(spec[k], spec[n - k].conj());
        }
    }

    #[test]
    fn empty_input() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
        assert!(fft_real(&[]).is_empty());
        assert!(ifft_real(&[]).is_empty());
    }

    #[test]
    fn linearity() {
        let n = 21;
        let x = ramp(n);
        let y: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).cos(), 0.2))
            .collect();
        let sum: Vec<Complex> = x.iter().zip(&y).map(|(&a, &b)| a + b).collect();
        let fx = fft(&x);
        let fy = fft(&y);
        let fsum = fft(&sum);
        for k in 0..n {
            assert!((fsum[k] - (fx[k] + fy[k])).abs() < 1e-12);
        }
    }

    #[test]
    fn fast_lengths() {
        assert_eq!(next_fast_len(0), 2);
        assert_eq!(next_fast_len(7), 8);
        assert_eq!(next_fast_len(19_999), 20_000);
        assert_eq!(next_fast_len(1025), 1080);
        for n in 1..2000 {
            let m = next_fast_len(n);
            assert!(m >= n && m.is_multiple_of(2) && Stages::radices(m).is_some());
        }
    }
}
