//! IIR filtering: `lfilter` (direct-form II transposed) and MATLAB-style
//! zero-phase `filtfilt` — the paper's `Das_filtfilt`.

use crate::linalg::solve;
use crate::tier;

/// Apply the rational filter `b / a` to `x` (like MATLAB `filter`).
///
/// Direct-form II transposed; `a[0]` must be non-zero (coefficients are
/// normalized by it).
pub fn lfilter(b: &[f64], a: &[f64], x: &[f64]) -> Vec<f64> {
    let order = b.len().max(a.len());
    lfilter_zi(b, a, x, &vec![0.0; order.saturating_sub(1)]).0
}

/// [`lfilter`] with explicit initial conditions `zi` (length
/// `max(len(a), len(b)) − 1`). Returns `(y, zf)` with the final state.
pub fn lfilter_zi(b: &[f64], a: &[f64], x: &[f64], zi: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let (bb, aa) = normalized(b, a);
    let n = bb.len();

    let mut z = zi.to_vec();
    assert_eq!(z.len(), n - 1, "zi must have length max(len(a),len(b))-1");
    let mut y = Vec::with_capacity(x.len());
    for &xn in x {
        let yn = bb[0] * xn + z.first().copied().unwrap_or(0.0);
        for i in 0..n.saturating_sub(1) {
            let z_next = if i + 1 < z.len() { z[i + 1] } else { 0.0 };
            z[i] = bb[i + 1] * xn + z_next - aa[i + 1] * yn;
        }
        y.push(yn);
    }
    (y, z)
}

/// `b` and `a` divided by `a[0]` and zero-padded to a common length.
fn normalized(b: &[f64], a: &[f64]) -> (Vec<f64>, Vec<f64>) {
    assert!(!a.is_empty() && a[0] != 0.0, "a[0] must be non-zero");
    let n = b.len().max(a.len());
    let pad = |c: &[f64]| -> Vec<f64> {
        (0..n)
            .map(|i| c.get(i).copied().unwrap_or(0.0) / a[0])
            .collect()
    };
    (pad(b), pad(a))
}

/// Steady-state initial conditions for a unit step input, as MATLAB's
/// `filtfilt` computes them to suppress edge transients. `bb` and `aa`
/// are [`normalized`].
fn filtfilt_zi(bb: &[f64], aa: &[f64]) -> Vec<f64> {
    let n = bb.len();
    if n < 2 {
        return Vec::new();
    }
    let m = n - 1;
    // M = I − K, where K has first column −a[1..] and an identity block
    // shifted right by one on its first m−1 rows.
    let mut mat = vec![0.0; m * m];
    for i in 0..m {
        mat[i * m + i] += 1.0;
        mat[i * m] += aa[i + 1];
        if i + 1 < m {
            mat[i * m + i + 1] -= 1.0;
        }
    }
    let rhs: Vec<f64> = (0..m).map(|i| bb[i + 1] - bb[0] * aa[i + 1]).collect();
    solve(&mat, &rhs, m).unwrap_or_else(|| vec![0.0; m])
}

/// Rows a block advances in lockstep (see the lane rule in the crate
/// docs): four independent recurrences keep the add → multiply → subtract
/// chain of one sample from being the only work in flight.
pub const LANES: usize = 4;

/// A zero-phase forward-backward filter (MATLAB `filtfilt`) prepared for
/// one `b / a`: coefficients normalized and the transient-suppressing
/// initial state solved once, so applying it to a row is two passes over
/// caller-owned scratch.
///
/// The input is extended at both ends with odd-reflected samples of
/// length `3·(order−1)`, filtered forward and backward from
/// transient-minimizing initial conditions, and trimmed back. The result
/// has zero phase distortion and the squared magnitude response of the
/// single-pass filter.
///
/// A direct-form II transposed pass is one dependency chain per row —
/// sample `t + 1` needs the state sample `t` left — so a block of rows
/// ([`apply_block_into`](Self::apply_block_into)) is interleaved
/// `[sample][lane]` and [`LANES`] rows advance through one loop, each
/// lane with its own state and its own operations in the one-row order:
/// a row's output has the same bits whichever lane it rode in, whatever
/// rode beside it, and as [`apply_into`](Self::apply_into) alone (the
/// block of one). For 3, 5, 7 and 9 coefficients — bandpass orders 1 to
/// 4 of the [`MAX_ORDER`](crate::butter::MAX_ORDER) a caller may ask for
/// — the lanes' state is a fixed-size local the compiler keeps in
/// registers, two lanes to a vector (all four on a CPU with AVX2, chosen
/// at run time, same bits); for any other count it lives in the scratch
/// and each sample runs the recurrence lane after lane, the four chains
/// overlapping in the pipeline.
#[derive(Debug, Clone)]
pub struct FiltFilt {
    b: Vec<f64>,
    a: Vec<f64>,
    zi: Vec<f64>,
}

impl FiltFilt {
    /// Prepare the filter `b / a`.
    ///
    /// # Panics
    /// Panics when `a` is empty or `a[0]` is zero.
    pub fn new(b: &[f64], a: &[f64]) -> FiltFilt {
        let (b, a) = normalized(b, a);
        let zi = filtfilt_zi(&b, &a);
        FiltFilt { b, a, zi }
    }

    /// Samples reflected onto each end, `3·(max(len a, len b) − 1)`; a
    /// row must be longer than this.
    pub fn edge_len(&self) -> usize {
        3 * (self.b.len() - 1)
    }

    /// Filter `x` into `out` (cleared first). `scratch` is resized to
    /// the extended row; nothing is allocated once both have capacity.
    ///
    /// # Panics
    /// Panics when `x` is not longer than [`edge_len`](Self::edge_len),
    /// matching MATLAB's input-length requirement.
    pub fn apply_into(&self, x: &[f64], out: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        self.lanes([x], [out], scratch);
    }

    /// Filter every row of `rows` into the matching entry of `outs`:
    /// [`LANES`] rows at a time in lockstep, the last `len % LANES` one
    /// by one. Bit-identical to [`apply_into`](Self::apply_into) on each
    /// row.
    ///
    /// # Panics
    /// Panics when `rows` and `outs` differ in length, when rows that
    /// share a lockstep block differ in length, or when a row is not
    /// longer than [`edge_len`](Self::edge_len).
    pub fn apply_block_into(
        &self,
        rows: &[Vec<f64>],
        outs: &mut [Vec<f64>],
        scratch: &mut Vec<f64>,
    ) {
        assert_eq!(rows.len(), outs.len(), "one output per row");
        let (mut rows, mut outs) = (rows.chunks_exact(LANES), outs.chunks_exact_mut(LANES));
        for (x, out) in (&mut rows).zip(&mut outs) {
            let out: &mut [Vec<f64>; LANES] = out.try_into().expect("chunks_exact(LANES)");
            self.lanes::<LANES>(
                std::array::from_fn(|lane| x[lane].as_slice()),
                out.each_mut(),
                scratch,
            );
        }
        for (x, out) in rows.remainder().iter().zip(outs.into_remainder()) {
            self.apply_into(x, out, scratch);
        }
    }

    /// `L` equal-length rows through the forward and the backward pass
    /// side by side.
    fn lanes<const L: usize>(
        &self,
        x: [&[f64]; L],
        out: [&mut Vec<f64>; L],
        scratch: &mut Vec<f64>,
    ) {
        let nfact = self.edge_len();
        let n = x[0].len();
        assert!(
            x.iter().all(|row| row.len() == n),
            "rows filtered in lockstep must have one length"
        );
        assert!(
            n > nfact,
            "filtfilt input must be longer than 3*(order) = {nfact}, got {n}"
        );
        if nfact == 0 {
            // Pure gain; forward-backward is just gain² (b[0]/a[0])².
            let g = self.b[0];
            for (x, out) in x.into_iter().zip(out) {
                out.clear();
                out.extend(x.iter().map(|&v| v * g * g));
            }
            return;
        }
        // The odd-reflected extension of each row, interleaved
        // `[sample][lane]`, then the state of a run-time-length pass.
        // Every cell is written before it is read, so what the scratch
        // held is neither cleared nor looked at.
        let (ext_len, n_state) = (n + 2 * nfact, self.b.len());
        scratch.resize((ext_len + n_state) * L, 0.0);
        let (ext, state) = scratch.split_at_mut(ext_len * L);
        let (ext, _) = ext.as_chunks_mut::<L>();
        for (lane, x) in x.into_iter().enumerate() {
            let (head, body) = ext.split_at_mut(nfact);
            let (body, tail) = body.split_at_mut(n);
            let (first, last) = (x[0], x[n - 1]);
            for (cell, &v) in head.iter_mut().zip(x[1..=nfact].iter().rev()) {
                cell[lane] = 2.0 * first - v;
            }
            for (cell, &v) in body.iter_mut().zip(x) {
                cell[lane] = v;
            }
            for (cell, &v) in tail.iter_mut().zip(x[n - 1 - nfact..n - 1].iter().rev()) {
                cell[lane] = 2.0 * last - v;
            }
        }
        // Bandpass orders 1–4 (and low/high-pass orders 2, 4, 6, 8): the
        // state of four lanes still fits the sixteen vector registers of
        // the baseline target. Past nine coefficients the fixed-size
        // form spills on the dependency chain and the run-time-length
        // one is the faster of the two.
        match n_state {
            3 => self.passes_n::<L, 3>(ext),
            5 => self.passes_n::<L, 5>(ext),
            7 => self.passes_n::<L, 7>(ext),
            9 => self.passes_n::<L, 9>(ext),
            _ => self.passes_any(ext, state),
        }
        for (lane, out) in out.into_iter().enumerate() {
            out.clear();
            out.extend(ext[nfact..nfact + n].iter().map(|cell| cell[lane]));
        }
    }

    /// The forward then the backward pass over the interleaved
    /// extension for a filter of exactly `N` coefficients, each on the
    /// widest [`tier`] this CPU has.
    fn passes_n<const L: usize, const N: usize>(&self, ext: &mut [[f64; L]]) {
        let first = ext[0];
        tier::run(PassN::<_, L, N> {
            filter: self,
            first,
            samples: ext.iter_mut(),
        });
        let first = ext[ext.len() - 1];
        tier::run(PassN::<_, L, N> {
            filter: self,
            first,
            samples: ext.iter_mut().rev(),
        });
    }

    /// [`passes_n`](Self::passes_n) for any coefficient count: `state`
    /// holds each lane's state in turn (`L × len b`), in memory.
    #[inline(never)]
    fn passes_any<const L: usize>(&self, ext: &mut [[f64; L]], state: &mut [f64]) {
        self.pass_any(state, ext[0], ext.iter_mut());
        let last = ext[ext.len() - 1];
        self.pass_any(state, last, ext.iter_mut().rev());
    }

    /// One direct-form II transposed pass over `samples`, in place, in
    /// iteration order, from the step-response state scaled by `first`
    /// (the first sample the pass meets): each sample runs the scalar
    /// recurrence `y = b₀x + z₀; zᵢ = bᵢ₊₁x + zᵢ₊₁ − aᵢ₊₁y` once per
    /// lane, the lanes' chains overlapping in the pipeline. Each lane's
    /// state is one longer than the recurrence needs: its last entry
    /// stays 0.
    #[inline(always)]
    fn pass_any<'a, const L: usize>(
        &self,
        state: &mut [f64],
        first: [f64; L],
        samples: impl Iterator<Item = &'a mut [f64; L]>,
    ) {
        let n = self.b.len();
        let (b, a) = (&self.b[..n], &self.a[..n]);
        for (z, first) in state.chunks_exact_mut(n).zip(first) {
            for (z, &zi) in z.iter_mut().zip(&self.zi) {
                *z = zi * first;
            }
            z[n - 1] = 0.0;
        }
        for v in samples {
            for (z, v) in state.chunks_exact_mut(n).zip(v.iter_mut()) {
                let xn = *v;
                let yn = b[0] * xn + z[0];
                for i in 0..n - 1 {
                    z[i] = b[i + 1] * xn + z[i + 1] - a[i + 1] * yn;
                }
                *v = yn;
            }
        }
    }
}

/// [`FiltFilt::pass_any`] for a filter of exactly `N` coefficients, over
/// `samples` from the state scaled by `first`, as a [`tier::Kernel`]:
/// state and coefficients are `N`-entry locals of one `[f64; L]` cell
/// each (`b` and `a` repeat each coefficient across a cell) and the lanes
/// innermost, so the loops over the coefficients unroll, the state lives
/// in registers and one vector instruction advances two lanes (four on
/// the AVX2 tier). Per lane the operations, and their order, are those of
/// the scalar recurrence. Each tier's runner compiles its own copy per
/// `(L, N, direction)`, whose code does not depend on what the caller
/// looks like.
struct PassN<'f, I, const L: usize, const N: usize> {
    filter: &'f FiltFilt,
    first: [f64; L],
    samples: I,
}

impl<'a, I, const L: usize, const N: usize> tier::Kernel for PassN<'_, I, L, N>
where
    I: Iterator<Item = &'a mut [f64; L]>,
{
    type Output = ();

    #[inline(always)]
    fn run<const WIDE: bool>(self) {
        let PassN {
            filter,
            first,
            samples,
        } = self;
        let b: [[f64; L]; N] = std::array::from_fn(|i| [filter.b[i]; L]);
        let a: [[f64; L]; N] = std::array::from_fn(|i| [filter.a[i]; L]);
        // `zi` has N − 1 entries: the last state entry stays 0.
        let mut z = [[0.0; L]; N];
        for (z, &zi) in z.iter_mut().zip(&filter.zi) {
            *z = first.map(|v| zi * v);
        }
        for v in samples {
            let xn = *v;
            let mut yn = [0.0; L];
            for lane in 0..L {
                yn[lane] = b[0][lane] * xn[lane] + z[0][lane];
            }
            for i in 0..N - 1 {
                for lane in 0..L {
                    z[i][lane] =
                        b[i + 1][lane] * xn[lane] + z[i + 1][lane] - a[i + 1][lane] * yn[lane];
                }
            }
            *v = yn;
        }
    }
}

/// Zero-phase forward-backward filtering (MATLAB `filtfilt`); see
/// [`FiltFilt`], which row loops prepare once and reuse.
///
/// # Panics
/// Panics when `x` is shorter than `3·(max(len(a), len(b)) − 1) + 1`,
/// matching MATLAB's input-length requirement.
pub fn filtfilt(b: &[f64], a: &[f64], x: &[f64]) -> Vec<f64> {
    let (mut out, mut scratch) = (Vec::new(), Vec::new());
    FiltFilt::new(b, a).apply_into(x, &mut out, &mut scratch);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butter::{butter, FilterBand};

    /// The allocate-extend-reverse implementation `FiltFilt` replaced
    /// (with its per-call initial-state solve), kept as the bit-exact
    /// reference.
    fn filtfilt_zi_reference(b: &[f64], a: &[f64]) -> Vec<f64> {
        let n = b.len().max(a.len());
        if n < 2 {
            return Vec::new();
        }
        let a0 = a[0];
        let bb: Vec<f64> = (0..n)
            .map(|i| b.get(i).copied().unwrap_or(0.0) / a0)
            .collect();
        let aa: Vec<f64> = (0..n)
            .map(|i| a.get(i).copied().unwrap_or(0.0) / a0)
            .collect();
        let m = n - 1;
        // M = I − K, where K has first column −a[1..] and an identity block
        // shifted right by one on its first m−1 rows.
        let mut mat = vec![0.0; m * m];
        for i in 0..m {
            mat[i * m + i] += 1.0;
            mat[i * m] += aa[i + 1];
            if i + 1 < m {
                mat[i * m + i + 1] -= 1.0;
            }
        }
        let rhs: Vec<f64> = (0..m).map(|i| bb[i + 1] - bb[0] * aa[i + 1]).collect();
        solve(&mat, &rhs, m).unwrap_or_else(|| vec![0.0; m])
    }

    fn filtfilt_reference(b: &[f64], a: &[f64], x: &[f64]) -> Vec<f64> {
        let nfilt = b.len().max(a.len());
        let nfact = 3 * (nfilt.saturating_sub(1));
        assert!(
            x.len() > nfact,
            "filtfilt input must be longer than 3*(order) = {nfact}, got {}",
            x.len()
        );
        if nfact == 0 {
            // Pure gain; forward-backward is just gain² (b[0]/a[0])².
            let g = b[0] / a[0];
            return x.iter().map(|&v| v * g * g).collect();
        }

        // Odd reflection padding.
        let first = x[0];
        let last = x[x.len() - 1];
        let mut ext = Vec::with_capacity(x.len() + 2 * nfact);
        for i in (1..=nfact).rev() {
            ext.push(2.0 * first - x[i]);
        }
        ext.extend_from_slice(x);
        for i in 1..=nfact {
            ext.push(2.0 * last - x[x.len() - 1 - i]);
        }

        let zi = filtfilt_zi_reference(b, a);

        // Forward pass.
        let zi_f: Vec<f64> = zi.iter().map(|&z| z * ext[0]).collect();
        let (mut y, _) = lfilter_zi(b, a, &ext, &zi_f);
        // Backward pass.
        y.reverse();
        let zi_b: Vec<f64> = zi.iter().map(|&z| z * y[0]).collect();
        let (mut y, _) = lfilter_zi(b, a, &y, &zi_b);
        y.reverse();

        y[nfact..nfact + x.len()].to_vec()
    }

    /// The one-row, one-chain `apply_into` the lockstep lanes replaced
    /// (state in the scratch, one sample at a time), kept as the
    /// bit-exact reference.
    fn apply_into_reference(f: &FiltFilt, x: &[f64], out: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        fn pass<'a>(
            f: &FiltFilt,
            z: &mut [f64],
            first: f64,
            samples: impl Iterator<Item = &'a mut f64>,
        ) {
            for (state, &zi) in z.iter_mut().zip(&f.zi) {
                *state = zi * first;
            }
            let (b_rest, a_rest) = (&f.b[1..], &f.a[1..]);
            for v in samples {
                let xn = *v;
                let yn = f.b[0] * xn + z[0];
                for i in 0..b_rest.len() {
                    z[i] = b_rest[i] * xn + z[i + 1] - a_rest[i] * yn;
                }
                *v = yn;
            }
        }
        let nfact = f.edge_len();
        assert!(x.len() > nfact);
        out.clear();
        if nfact == 0 {
            let g = f.b[0];
            out.extend(x.iter().map(|&v| v * g * g));
            return;
        }
        let n_state = f.b.len();
        scratch.clear();
        scratch.resize(n_state, 0.0);
        let (first, last) = (x[0], x[x.len() - 1]);
        scratch.extend(x[1..=nfact].iter().rev().map(|&v| 2.0 * first - v));
        scratch.extend_from_slice(x);
        scratch.extend(
            x[x.len() - 1 - nfact..x.len() - 1]
                .iter()
                .rev()
                .map(|&v| 2.0 * last - v),
        );
        let (z, ext) = scratch.split_at_mut(n_state);
        pass(f, z, ext[0], ext.iter_mut());
        pass(f, z, ext[ext.len() - 1], ext.iter_mut().rev());
        out.extend_from_slice(&ext[nfact..nfact + x.len()]);
    }

    fn reference(f: &FiltFilt, x: &[f64]) -> Vec<f64> {
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        apply_into_reference(f, x, &mut out, &mut scratch);
        out
    }

    /// Row `r` of the test blocks: a tone plus deterministic noise, its
    /// own phase and scale per row.
    fn row(r: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let noise = ((i * 7919 + r * 104_729) % 1000) as f64 / 500.0 - 1.0;
                (1.0 + r as f64) * (i as f64 * (0.21 + 0.03 * r as f64)).sin() + noise
            })
            .collect()
    }

    /// Every design `butter` hands out up to `MAX_ORDER` — 2 to 17
    /// coefficients, on both sides of the fixed-count `match` — then
    /// numerators and denominators of different lengths, and pure gain.
    fn designs() -> Vec<FiltFilt> {
        let mut filters = Vec::new();
        for order in 1..=crate::butter::MAX_ORDER {
            for band in [
                FilterBand::Lowpass(0.3),
                FilterBand::Highpass(0.4),
                FilterBand::Bandpass(0.05, 0.8),
            ] {
                let (b, a) = butter(order, band);
                filters.push(FiltFilt::new(&b, &a));
            }
        }
        filters.push(FiltFilt::new(&[0.5, 0.25], &[2.0]));
        filters.push(FiltFilt::new(&[0.2], &[1.0, -0.5, 0.1, 0.05]));
        filters.push(FiltFilt::new(
            &[0.3, 0.2, 0.1, 0.05, 0.02],
            &[1.5, -0.4, 0.1],
        ));
        filters.push(FiltFilt::new(&[3.0], &[1.5]));
        filters
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}, sample {i}: {g} vs {w}");
        }
    }

    #[test]
    fn lockstep_blocks_have_the_one_row_reference_bits() {
        tier::each(|tier| {
            let mut scratch = vec![f64::NAN; 5];
            for f in designs() {
                let edge = f.edge_len();
                let coeffs = f.b.len();
                for n in [edge + 1, edge + 2, 97, 5000] {
                    // every block size up to two full lockstep groups and a
                    // leftover: each remainder, each lane position
                    let sizes: &[usize] = if n == 5000 {
                        &[9]
                    } else {
                        &[1, 2, 3, 4, 5, 6, 7, 8, 9]
                    };
                    for &k in sizes {
                        let rows: Vec<Vec<f64>> = (0..k).map(|r| row(r, n)).collect();
                        let want: Vec<Vec<f64>> = rows.iter().map(|x| reference(&f, x)).collect();
                        let mut outs = vec![vec![f64::NAN; 3]; k];
                        f.apply_block_into(&rows, &mut outs, &mut scratch);
                        assert_eq!(
                            outs, want,
                            "{tier:?}: {coeffs} coefficients, {k} rows of {n}"
                        );
                        // rows given in another order ride in other lanes
                        let reversed: Vec<Vec<f64>> = rows.iter().rev().cloned().collect();
                        f.apply_block_into(&reversed, &mut outs, &mut scratch);
                        outs.reverse();
                        assert_eq!(
                            outs, want,
                            "{tier:?}: {coeffs} coefficients, {k} rows of {n}, reversed"
                        );
                    }
                    let x = row(0, n);
                    let mut out = vec![f64::NAN; 2];
                    f.apply_into(&x, &mut out, &mut scratch);
                    assert_eq!(
                        out,
                        reference(&f, &x),
                        "{tier:?}: {coeffs} coefficients, one row of {n}"
                    );
                    assert_eq!(out, filtfilt_reference(&f.b, &f.a, &x));
                }
            }
        });
    }

    /// A lane never reads another lane's state: a row of NaN, infinities
    /// or subnormals beside finite rows changes nothing in them, and
    /// comes out as it does alone — in every lane, for a fixed-count and
    /// a run-time-count filter.
    #[test]
    fn a_poisoned_row_stays_in_its_lane() {
        tier::each(|tier| {
            let n = 120;
            let poisons: [fn(usize) -> f64; 4] = [
                |_| f64::NAN,
                |i| {
                    if i % 2 == 0 {
                        f64::INFINITY
                    } else {
                        f64::NEG_INFINITY
                    }
                },
                |i| {
                    if i == 60 {
                        f64::INFINITY
                    } else {
                        (i as f64 * 0.3).sin()
                    }
                },
                |i| f64::MIN_POSITIVE / (1 + i % 7) as f64,
            ];
            let mut scratch = Vec::new();
            for order in [4, 5] {
                let (b, a) = butter(order, FilterBand::Bandpass(0.05, 0.8));
                let f = FiltFilt::new(&b, &a);
                for poison in poisons {
                    for lane in 0..LANES {
                        let mut rows: Vec<Vec<f64>> = (0..LANES).map(|r| row(r, n)).collect();
                        rows[lane] = (0..n).map(poison).collect();
                        let mut outs = vec![Vec::new(); LANES];
                        f.apply_block_into(&rows, &mut outs, &mut scratch);
                        for (r, (out, x)) in outs.iter().zip(&rows).enumerate() {
                            let what =
                                format!("{tier:?}: order {order}, poison in lane {lane}, row {r}");
                            assert_same_bits(out, &reference(&f, x), &what);
                            assert_eq!(r == lane, out.iter().any(|v| !v.is_normal()), "{what}");
                        }
                    }
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "one length")]
    fn lockstep_rows_must_have_one_length() {
        let (b, a) = butter(2, FilterBand::Lowpass(0.3));
        let rows = vec![row(0, 50), row(1, 50), row(2, 51), row(3, 50)];
        let mut outs = vec![Vec::new(); 4];
        FiltFilt::new(&b, &a).apply_block_into(&rows, &mut outs, &mut Vec::new());
    }

    #[test]
    fn prepared_filter_has_the_reference_bits() {
        tier::each(|tier| {
            let x: Vec<f64> = (0..400)
                .map(|i| (i as f64 * 0.21).sin() + ((i * 7919) % 1000) as f64 / 500.0 - 1.0)
                .collect();
            let filters = [
                butter(4, FilterBand::Bandpass(0.002, 0.096)),
                butter(3, FilterBand::Bandpass(0.05, 0.8)),
                butter(2, FilterBand::Lowpass(0.3)),
                butter(5, FilterBand::Highpass(0.4)),
                (vec![0.5, 0.25], vec![2.0]),
                (vec![3.0], vec![1.5]),
            ];
            for (b, a) in &filters {
                let prepared = FiltFilt::new(b, a);
                let edge = prepared.edge_len();
                assert_eq!(edge, 3 * (b.len().max(a.len()) - 1));
                let (mut out, mut scratch) = (vec![f64::NAN; 3], vec![f64::NAN; 7]);
                // from the shortest row the filter takes
                for n in [edge + 1, edge + 2, 2 * edge + 1, 97, 400] {
                    let want = filtfilt_reference(b, a, &x[..n]);
                    prepared.apply_into(&x[..n], &mut out, &mut scratch);
                    assert_eq!(
                        out,
                        want,
                        "{tier:?}: {} coefficients over {n} samples",
                        b.len()
                    );
                    assert_eq!(filtfilt(b, a, &x[..n]), want);
                }
            }
        });
    }

    #[test]
    fn lfilter_fir_is_convolution() {
        let b = [0.5, 0.25, 0.25];
        let a = [1.0];
        let x = [1.0, 0.0, 0.0, 0.0, 2.0];
        let y = lfilter(&b, &a, &x);
        assert_eq!(y, vec![0.5, 0.25, 0.25, 0.0, 1.0]);
    }

    #[test]
    fn lfilter_normalizes_by_a0() {
        let y1 = lfilter(&[1.0], &[2.0], &[4.0, 8.0]);
        assert_eq!(y1, vec![2.0, 4.0]);
    }

    #[test]
    fn lfilter_single_pole_impulse_response() {
        // y[n] = x[n] + 0.5 y[n−1]  →  impulse response 0.5^n
        let b = [1.0];
        let a = [1.0, -0.5];
        let mut x = vec![0.0; 8];
        x[0] = 1.0;
        let y = lfilter(&b, &a, &x);
        for (n, &v) in y.iter().enumerate() {
            assert!((v - 0.5f64.powi(n as i32)).abs() < 1e-12);
        }
    }

    #[test]
    fn lfilter_state_carries_across_chunks() {
        let b = [0.2, 0.3];
        let a = [1.0, -0.4];
        let x: Vec<f64> = (0..50).map(|i| ((i as f64) * 0.3).sin()).collect();
        let whole = lfilter(&b, &a, &x);
        let (y1, z) = lfilter_zi(&b, &a, &x[..20], &[0.0]);
        let (y2, _) = lfilter_zi(&b, &a, &x[20..], &z);
        let stitched: Vec<f64> = y1.into_iter().chain(y2).collect();
        for (a, b) in whole.iter().zip(&stitched) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn filtfilt_preserves_dc() {
        let (b, a) = butter(4, FilterBand::Lowpass(0.3));
        let x = vec![2.5; 200];
        let y = filtfilt(&b, &a, &x);
        for &v in &y {
            assert!((v - 2.5).abs() < 1e-6, "DC distorted: {v}");
        }
    }

    #[test]
    fn filtfilt_zero_phase_on_passband_tone() {
        // A slow sine passed through a lowpass must come out unshifted.
        let n = 500;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 0.02 * i as f64).sin())
            .collect();
        let (b, a) = butter(4, FilterBand::Lowpass(0.2));
        let y = filtfilt(&b, &a, &x);
        // Compare against the input directly (no lag): the peak of the
        // cross-correlation should be at zero lag.
        let mut best_lag = 0isize;
        let mut best = f64::MIN;
        for lag in -5isize..=5 {
            let mut acc = 0.0;
            for i in 100..n as isize - 100 {
                acc += x[i as usize] * y[(i + lag) as usize];
            }
            if acc > best {
                best = acc;
                best_lag = lag;
            }
        }
        assert_eq!(best_lag, 0, "filtfilt introduced a phase shift");
        // Amplitude preserved in the passband.
        let amp = y[100..400]
            .iter()
            .cloned()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!((amp - 1.0).abs() < 0.05, "passband amplitude {amp}");
    }

    #[test]
    fn filtfilt_attenuates_stopband() {
        let n = 600;
        // High-frequency tone at 0.9·Nyquist through a 0.2 lowpass.
        let x: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::PI * 0.9 * i as f64).sin())
            .collect();
        let (b, a) = butter(4, FilterBand::Lowpass(0.2));
        let y = filtfilt(&b, &a, &x);
        let amp = y[100..500]
            .iter()
            .cloned()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(amp < 1e-3, "stopband leak: {amp}");
    }

    #[test]
    fn filtfilt_pure_gain_path() {
        let y = filtfilt(&[2.0], &[1.0], &[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![4.0, 8.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "filtfilt input must be longer")]
    fn filtfilt_rejects_short_input() {
        let (b, a) = butter(4, FilterBand::Lowpass(0.3));
        filtfilt(&b, &a, &[1.0; 10]);
    }
}
