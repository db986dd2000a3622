//! The unit walk against the [`reference`](super::reference) bodies it
//! replaced: same bits for every dtype, rank, codec and selection shape,
//! through a fresh handle and through one whose units are already
//! verified, into dense vectors and into strided windows.

use super::*;
use crate::Writer;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmp() -> PathBuf {
    let dir = std::env::temp_dir().join("dasf-walk-equivalence");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}.dasf", COUNTER.fetch_add(1, Ordering::Relaxed)))
}

/// xorshift64*: every choice of a case comes from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// An element type the cases can synthesise: slow steps (what
/// shuffle-lz and quant shrink) or arbitrary bit patterns (what they
/// cannot, so the unit falls back to raw storage).
trait Sample: Element {
    fn step(i: u64) -> Self;
}

impl Sample for f32 {
    fn step(i: u64) -> f32 {
        (i / 13) as f32 * 0.25 - 90.0
    }
}

impl Sample for f64 {
    fn step(i: u64) -> f64 {
        (i / 9) as f64 * -1.5
    }
}

impl Sample for i16 {
    fn step(i: u64) -> i16 {
        (i / 21 % 3000) as i16 - 1500
    }
}

impl Sample for u8 {
    fn step(i: u64) -> u8 {
        (i / 301) as u8
    }
}

fn bits<T: Element>(v: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(std::mem::size_of_val(v));
    v.iter().for_each(|x| x.write_le(&mut out));
    out
}

/// Dims of rank 1–3 whose payload spans from under one unit to about
/// five, and never a whole number of them (a short last unit).
fn dims_for<T: Element>(rng: &mut Rng) -> Vec<u64> {
    let width = std::mem::size_of::<T>() as u64;
    let elems = (1 + rng.below(5 * VERIFY_CHUNK_BYTES)) / width + 3;
    match 1 + rng.below(3) {
        1 => vec![elems],
        2 => {
            // rows from far shorter than a unit (several share one) to
            // longer than one (a row straddles units)
            let cols = 1 + rng.below(elems.min(40_000));
            vec![elems.div_ceil(cols), cols]
        }
        _ => {
            let cols = 1 + rng.below(elems.min(3_000));
            let mid = 1 + rng.below(6);
            vec![elems.div_ceil(cols * mid), mid, cols]
        }
    }
}

/// A selection of one of the shapes the walk has distinct code for.
fn selection_for(rng: &mut Rng, dims: &[u64], width: u64) -> Vec<(u64, u64)> {
    let unit = VERIFY_CHUNK_BYTES / width;
    let mut sel: Vec<(u64, u64)> = dims
        .iter()
        .map(|&d| {
            let off = rng.below(d);
            (off, 1 + rng.below(d - off))
        })
        .collect();
    let last = dims.len() - 1;
    match rng.below(8) {
        // empty in one dimension
        0 => sel[rng.below(dims.len() as u64) as usize].1 = 0,
        // a single element
        1 => sel.iter_mut().for_each(|s| s.1 = 1),
        // everything
        2 => sel = dims.iter().map(|&d| (0, d)).collect(),
        // full rows: runs that abut in the file
        3 => sel[last] = (0, dims[last]),
        // unit-aligned runs, where the innermost dimension has room
        4 if dims[last] > unit => {
            let units = dims[last] / unit;
            let first = rng.below(units);
            sel[last] = (first * unit, (1 + rng.below(units - first)) * unit);
        }
        // a run that straddles a unit boundary by one element each way
        5 if dims[last] > unit + 1 => sel[last] = (unit - 1, 2),
        _ => {}
    }
    sel
}

fn check_case<T: Sample>(seed: u64, codec: Codec) {
    let mut rng = Rng(seed | 1);
    let width = std::mem::size_of::<T>() as u64;
    let dims = dims_for::<T>(&mut rng);
    let n: u64 = dims.iter().product();
    // Whole units of steps and of noise, interleaved: under a non-raw
    // codec the noisy ones fall back to raw storage, unit by unit.
    let noisy_units = rng.below(4);
    let data: Vec<T> = (0..n)
        .map(|i| {
            if noisy_units > 0 && (i * width / VERIFY_CHUNK_BYTES) % 4 < noisy_units {
                T::read_le(&rng.next().to_le_bytes())
            } else {
                T::step(i)
            }
        })
        .collect();
    let path = tmp();
    let mut w = Writer::create(&path).unwrap();
    w.set_codec(codec).unwrap();
    w.write_dataset("/d", &dims, &data).unwrap();
    w.finish().unwrap();

    let reused = File::open(&path).unwrap();
    let mut want = Vec::<T>::new();
    let mut got = vec![T::step(7); 5]; // stale content and length
    File::open(&path)
        .unwrap()
        .reference_read_into("/d", &mut want)
        .unwrap();
    assert_eq!(reused.read_into("/d", &mut got).unwrap(), n as usize);
    assert_eq!(bits(&got), bits(&want), "whole read, {dims:?} {codec:?}");
    if matches!(codec, Codec::Raw | Codec::ShuffleLz) {
        assert_eq!(bits(&got), bits(&data), "lossless round trip");
    }

    for _ in 0..6 {
        let sel = selection_for(&mut rng, &dims, width);
        let total: u64 = sel.iter().map(|s| s.1).product();
        let what = format!("{sel:?} of {dims:?} {codec:?} seed {seed}");
        if total == 0 {
            assert_eq!(reused.read_hyperslab_into("/d", &sel, &mut got).unwrap(), 0);
            assert!(got.is_empty(), "{what}");
            continue;
        }
        File::open(&path)
            .unwrap()
            .reference_read_hyperslab_into("/d", &sel, &mut want)
            .unwrap();
        // a fresh handle verifies as it goes; `reused` already has
        let fresh = File::open(&path).unwrap();
        for f in [&fresh, &reused] {
            assert_eq!(
                f.read_hyperslab_into("/d", &sel, &mut got).unwrap(),
                total as usize
            );
            assert_eq!(bits(&got), bits(&want), "{what}");
        }

        // The same selection into a window of something wider: rows
        // `stride` apart from `start`, nothing else touched.
        let len = sel.last().unwrap().1 as usize;
        let rows = total as usize / len;
        let (start, pad) = (rng.below(9) as usize, rng.below(5) as usize);
        let stride = len + pad;
        let sentinel = T::step(1_000_003);
        let mut window = vec![sentinel; start + rows * stride + 2];
        fresh
            .read_hyperslab_strided("/d", &sel, &mut window, start, stride)
            .unwrap();
        let mut expect = vec![sentinel; window.len()];
        for (r, row) in want.chunks(len).enumerate() {
            expect[start + r * stride..][..len].copy_from_slice(row);
        }
        assert_eq!(bits(&window), bits(&expect), "window of {what}");
    }
    std::fs::remove_file(&path).ok();
}

fn codecs() -> impl Strategy<Value = Codec> {
    prop_oneof![
        Just(Codec::Raw),
        Just(Codec::ShuffleLz),
        Just(Codec::Quant { bound: 0.05 })
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn walk_matches_reference_f32(seed in any::<u64>(), codec in codecs()) {
        check_case::<f32>(seed, codec);
    }

    #[test]
    fn walk_matches_reference_f64(seed in any::<u64>(), codec in codecs()) {
        check_case::<f64>(seed, codec);
    }

    #[test]
    fn walk_matches_reference_i16(seed in any::<u64>(), codec in codecs()) {
        check_case::<i16>(seed, codec);
    }

    #[test]
    fn walk_matches_reference_u8(seed in any::<u64>(), codec in codecs()) {
        check_case::<u8>(seed, codec);
    }
}

#[test]
fn strided_destination_is_bounds_checked() {
    let path = tmp();
    let mut w = Writer::create(&path).unwrap();
    w.write_dataset_f32("/d", &[4, 6], &[1.0; 24]).unwrap();
    w.finish().unwrap();
    let f = File::open(&path).unwrap();
    let sel = [(1, 3), (2, 4)];
    let mut dst = vec![0f32; 3 * 10];
    // three rows of four, ten apart, from element 6: ends at 6 + 24
    assert_eq!(
        f.read_hyperslab_strided("/d", &sel, &mut dst, 6, 10)
            .unwrap(),
        12
    );
    for (start, stride) in [(7, 10), (0, 3), (usize::MAX, 10), (0, usize::MAX)] {
        assert!(
            matches!(
                f.read_hyperslab_strided("/d", &sel, &mut dst, start, stride),
                Err(DasfError::OutOfBounds(_))
            ),
            "start {start} stride {stride}"
        );
    }
    // one row may sit anywhere it fits, whatever the stride
    assert!(f
        .read_hyperslab_strided("/d", &[(0, 1), (0, 6)], &mut dst, 24, 0)
        .is_ok());
    // an empty selection writes nothing and needs no room
    assert_eq!(
        f.read_hyperslab_strided::<f32>("/d", &[(0, 0), (0, 6)], &mut [], 99, 0)
            .unwrap(),
        0
    );
}
