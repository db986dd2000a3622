//! Property tests for the v4 codec stage: arbitrary float tiles pushed
//! through the full writer→reader stack under every codec.
//!
//! * Lossless codecs (`raw`, `shuffle-lz`) must be bit-exact — NaNs,
//!   infinities, and subnormals included.
//! * `quant:<bound>` must reconstruct every *finite* sample within its
//!   error bound, and fall back to bit-exact lossless storage for units
//!   holding non-finite samples.
//! * Chunked and contiguous layouts must agree under compression, and
//!   hyperslabs must equal slices of the whole read.

use dasf::{Codec, File, Writer};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dasf-codec-proptests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!(
        "{tag}-{}.dasf",
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Any bit pattern, including NaN/Inf/subnormals: the lossless codecs
/// must round-trip all of them exactly.
fn any_f32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

fn any_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn lossless_codecs() -> impl Strategy<Value = Codec> {
    prop_oneof![Just(Codec::Raw), Just(Codec::ShuffleLz)]
}

/// Bit-exact equality that treats any NaN payload as equal to itself
/// after a lossless round trip (we compare bits, not values).
fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `n` samples within ±0.5 % of `centre` (xorshift64).
fn around(centre: f64, n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
            centre * (1.0 + 0.005 * u)
        })
        .collect()
}

/// `Codec::Quant` promises `|x − x̂| ≤ bound` for what a *reader* gets.
/// The first encoder checked nothing past `q · step` in f64, and with
/// the bound between ½ and 1 ulp of the samples the decoder's cast to
/// f32 lands on the neighbouring float: these three wrote 9 457,
/// 10 177 and 11 465 of 40 000 samples 1.43–1.53 × `bound` away.
#[test]
fn quant_bound_holds_where_the_decoders_cast_used_to_break_it() {
    for (bound, centre) in [(4e-5f64, 1000.0f64), (1.6e-7, 3.0), (0.7, 1e7)] {
        let tile: Vec<f32> = around(centre, 40_000, 0x0DA5)
            .iter()
            .map(|&x| x as f32)
            .collect();
        let path = tmp("quantrepro");
        let mut w = Writer::create(&path).unwrap();
        w.set_codec(Codec::Quant { bound }).unwrap();
        w.write_dataset_f32("/tile", &[40_000], &tile).unwrap();
        w.finish().unwrap();
        let back = File::open(&path).unwrap().read_f32("/tile").unwrap();
        let over: Vec<f64> = tile
            .iter()
            .zip(&back)
            .map(|(x, seen)| (*x as f64 - *seen as f64).abs())
            .filter(|err| *err > bound)
            .collect();
        let worst = over.iter().fold(0f64, |m, e| m.max(*e));
        assert!(
            over.is_empty(),
            "quant:{bound} near {centre}: {} samples over the bound, worst {worst:e} = {:.2} x bound",
            over.len(),
            worst / bound
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lossless_f32_tiles_round_trip_bit_exactly(
        rows in 1u64..12,
        cols in 1u64..400,
        data in prop::collection::vec(any_f32(), 1..4800),
        codec in lossless_codecs(),
    ) {
        let n = (rows * cols) as usize;
        let tile: Vec<f32> = data.iter().cycle().take(n).copied().collect();
        let path = tmp("lossless32");
        let mut w = Writer::create(&path).unwrap();
        w.set_codec(codec).unwrap();
        w.write_dataset_f32("/tile", &[rows, cols], &tile).unwrap();
        w.finish().unwrap();
        let f = File::open(&path).unwrap();
        prop_assert_eq!(bits32(&f.read_f32("/tile").unwrap()), bits32(&tile));
        prop_assert!(f.verify_all().unwrap().is_clean());
    }

    #[test]
    fn lossless_f64_tiles_round_trip_bit_exactly(
        len in 1u64..3000,
        data in prop::collection::vec(any_f64(), 1..3000),
        codec in lossless_codecs(),
    ) {
        let tile: Vec<f64> = data.iter().cycle().take(len as usize).copied().collect();
        let path = tmp("lossless64");
        let mut w = Writer::create(&path).unwrap();
        w.set_codec(codec).unwrap();
        w.write_dataset_f64("/tile", &[len], &tile).unwrap();
        w.finish().unwrap();
        let f = File::open(&path).unwrap();
        prop_assert_eq!(bits64(&f.read_f64("/tile").unwrap()), bits64(&tile));
    }

    #[test]
    fn quant_respects_bound_on_finite_f32_tiles(
        len in 1u64..4000,
        amp in 0.01f64..1e4,
        bound in 1e-6f64..0.5,
        seed in 0u64..1000,
    ) {
        // Finite, bounded samples: a smooth-ish wave plus deterministic
        // jitter, scaled by amp.
        let tile: Vec<f32> = (0..len)
            .map(|i| {
                let t = (i + seed) as f64;
                ((t * 0.013).sin() * amp + (t * 0.71).cos() * amp * 0.1) as f32
            })
            .collect();
        let path = tmp("quant32");
        let mut w = Writer::create(&path).unwrap();
        w.set_codec(Codec::Quant { bound }).unwrap();
        w.write_dataset_f32("/tile", &[len], &tile).unwrap();
        w.finish().unwrap();
        let f = File::open(&path).unwrap();
        let back = f.read_f32("/tile").unwrap();
        prop_assert_eq!(back.len(), tile.len());
        for (orig, got) in tile.iter().zip(&back) {
            let err = (*orig as f64 - *got as f64).abs();
            prop_assert!(err <= bound, "|{} - {}| = {} > {}", orig, got, err, bound);
        }
    }

    #[test]
    fn quant_bound_holds_when_it_is_a_few_ulp_of_the_samples(
        exponent in -30i32..30,
        ratio in 0.25f64..4.0,
        negative in any::<bool>(),
        len in 1usize..3000,
        seed in 1u64..u64::MAX,
    ) {
        // Where the decoder's cast of `q · step` decides: samples
        // within ±0.5 % of a centre whose ulp is comparable to the
        // bound, f32 and f64 alike.
        let centre = if negative { -1.37 } else { 1.37 } * 2f64.powi(exponent);
        let tile64 = around(centre, len, seed);
        let tile32: Vec<f32> = tile64.iter().map(|&x| x as f32).collect();
        let ulp32 = (f32::from_bits((centre as f32).to_bits() + 1) as f64 - centre as f32 as f64).abs();
        let ulp64 = (f64::from_bits(centre.to_bits() + 1) - centre).abs();

        let path = tmp("quantulp");
        let mut w = Writer::create(&path).unwrap();
        w.set_codec(Codec::Quant { bound: ratio * ulp32 }).unwrap();
        w.write_dataset_f32("/f32", &[len as u64], &tile32).unwrap();
        w.set_codec(Codec::Quant { bound: ratio * ulp64 }).unwrap();
        w.write_dataset_f64("/f64", &[len as u64], &tile64).unwrap();
        w.finish().unwrap();
        let f = File::open(&path).unwrap();
        for (orig, got) in tile32.iter().zip(&f.read_f32("/f32").unwrap()) {
            let err = (*orig as f64 - *got as f64).abs();
            prop_assert!(err <= ratio * ulp32, "f32 |{} - {}| = {} > {} ulp", orig, got, err, ratio);
        }
        for (orig, got) in tile64.iter().zip(&f.read_f64("/f64").unwrap()) {
            let err = (orig - got).abs();
            prop_assert!(err <= ratio * ulp64, "f64 |{} - {}| = {} > {} ulp", orig, got, err, ratio);
        }
    }

    #[test]
    fn quant_stores_non_finite_tiles_bit_exactly(
        data in prop::collection::vec(any_f32(), 2..600),
        nan_at in prop::collection::vec(0usize..600, 1..4),
    ) {
        // Plant NaNs so quantisation must fall back to lossless.
        let mut tile = data;
        let n = tile.len();
        for i in nan_at {
            tile[i % n] = f32::NAN;
        }
        let path = tmp("quantnan");
        let mut w = Writer::create(&path).unwrap();
        w.set_codec(Codec::Quant { bound: 1e-3 }).unwrap();
        w.write_dataset_f32("/tile", &[n as u64], &tile).unwrap();
        w.finish().unwrap();
        let f = File::open(&path).unwrap();
        prop_assert_eq!(bits32(&f.read_f32("/tile").unwrap()), bits32(&tile));
        // The codec actually used is never the quant codec.
        let meta = f.dataset("/tile").unwrap();
        prop_assert!(meta.codec() != Codec::Quant { bound: 1e-3 });
    }

    #[test]
    fn compressed_chunked_equals_contiguous(
        rows in 1u64..20,
        cols in 1u64..40,
        ch_r in 1u64..8,
        ch_c in 1u64..8,
        frac in 0.0f64..1.0,
        frac2 in 0.0f64..1.0,
    ) {
        // Runs of equal values: guaranteed compressible in most shapes.
        let data: Vec<f64> = (0..rows * cols).map(|i| (i / 7) as f64).collect();
        let path = tmp("chunkeq");
        let mut w = Writer::create(&path).unwrap();
        w.set_codec(Codec::ShuffleLz).unwrap();
        w.write_dataset_f64("/cont", &[rows, cols], &data).unwrap();
        w.write_dataset_chunked("/chunked", &[rows, cols], &[ch_r, ch_c], &data)
            .unwrap();
        w.finish().unwrap();
        let f = File::open(&path).unwrap();
        prop_assert_eq!(f.read_f64("/cont").unwrap(), f.read_f64("/chunked").unwrap());
        let r0 = (frac * rows as f64) as u64 % rows;
        let c0 = (frac2 * cols as f64) as u64 % cols;
        let rn = 1 + (rows - r0 - 1).min((frac2 * 5.0) as u64);
        let cn = 1 + (cols - c0 - 1).min((frac * 9.0) as u64);
        let sel = [(r0, rn), (c0, cn)];
        prop_assert_eq!(
            f.read_hyperslab_f64("/chunked", &sel).unwrap(),
            f.read_hyperslab_f64("/cont", &sel).unwrap()
        );
    }

    #[test]
    fn compressed_hyperslab_equals_whole_read_slice(
        rows in 1u64..10,
        cols in 64u64..600,
        frac in 0.0f64..1.0,
        frac2 in 0.0f64..1.0,
    ) {
        let data: Vec<f32> = (0..rows * cols).map(|i| (i / 16) as f32 * 0.5).collect();
        let path = tmp("slabeq");
        let mut w = Writer::create(&path).unwrap();
        w.set_codec(Codec::ShuffleLz).unwrap();
        w.write_dataset_f32("/d", &[rows, cols], &data).unwrap();
        w.finish().unwrap();
        let f = File::open(&path).unwrap();
        let whole = f.read_f32("/d").unwrap();
        let r0 = (frac * rows as f64) as u64 % rows;
        let c0 = (frac2 * cols as f64) as u64 % cols;
        let rn = 1 + (rows - r0 - 1).min(4);
        let cn = 1 + (cols - c0 - 1).min(100);
        let slab = f.read_hyperslab_f32("/d", &[(r0, rn), (c0, cn)]).unwrap();
        let mut expect = Vec::new();
        for r in r0..r0 + rn {
            for c in c0..c0 + cn {
                expect.push(whole[(r * cols + c) as usize]);
            }
        }
        prop_assert_eq!(slab, expect);
    }
}
