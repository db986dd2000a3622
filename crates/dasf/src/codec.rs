//! Per-unit compression codecs — the stage *under* the checksum layer.
//!
//! A v4 dataset stores each verify unit (64 KiB of contiguous payload,
//! or one storage chunk) through a codec, and the unit's CRC32C covers
//! the **stored** bytes. That ordering is what keeps `das_fsck`, the
//! corruption sweeps, and the chaos digests working unchanged: a scrub
//! hashes exactly what is on disk, and decode only ever runs on bytes
//! that already passed their checksum.
//!
//! Three codecs, all zero-dependency:
//!
//! * [`Codec::Raw`] — identity; the unit is stored as its little-endian
//!   payload bytes. Every other codec falls back to `Raw` *per unit*
//!   whenever encoding would not shrink that unit, so a compressed
//!   dataset never stores more than its raw form.
//! * [`Codec::ShuffleLz`] — byte-shuffle by element width (grouping the
//!   slowly-varying high-order bytes of neighbouring samples), then a
//!   greedy LZ with RLE-capable overlapping matches. Lossless and
//!   bit-exact.
//! * [`Codec::Quant`] — controlled-lossy: quantise each float to an
//!   integer grid of step `2 × bound` (so `|x − x̂| ≤ bound`), then
//!   compress the integers losslessly as above, à la DASPack. Units
//!   holding a non-finite or out-of-range sample, or one whose decoded
//!   value would miss the bound, fall back to the lossless path rather
//!   than corrupt them.
//!
//! The LZ token stream is byte-oriented: a control byte `0x00..=0x7F`
//! introduces a literal run of `ctrl + 1` bytes; `0x80..=0xFF` is a
//! match of length `(ctrl & 0x7F) + 4` at a little-endian u16 distance
//! (1..=65535) behind the output cursor. Distance 1 with a long length
//! is a byte RLE; an overlapping copy repeats the `dist`-byte pattern
//! behind the cursor.
//!
//! Decoding is two steps, and the second never materialises the raw
//! bytes: [`open_unit`] undoes the LZ stage into a scratch buffer the
//! caller owns (for a `Raw` unit it borrows the stored bytes as they
//! are), and [`Unit::copy_to`] turns any element range of the result
//! into values in the reader's destination — gathering the byte planes
//! of a shuffled unit, and dequantising, on the way.
//!
//! # The encoder
//!
//! Encoding is the same walk the other way round, and each unit is
//! touched once: an `Encoder` (one per `Writer`, holding the match
//! table and one unit of byte planes — 256 KiB + the unit, no global
//! and no pool) takes the caller's elements and appends the unit's
//! stored bytes to the tail of the buffer that goes to disk.
//!
//! 1. **Scatter.** One pass over the unit's elements writes byte `k` of
//!    element `i` to plane `k` — the element's little-endian encode,
//!    the quantisation of a `quant` unit and the shuffle are that one
//!    pass, so the payload never exists as a `Vec<u8>` of its own.
//!    Quantisation computes, per sample, exactly the value
//!    `Unit::copy_to` will hand back and abandons the unit to the
//!    lossless path when one is further than `bound` from its sample:
//!    the guarantee is about what a reader sees, and the decoder's cast
//!    of `q · step` to `f32` can land on the neighbouring float when
//!    `bound` is within a few ulp of the data.
//! 2. **Match.** The greedy finder walks the planes with a 2¹⁶-slot
//!    table of "last position whose four bytes hashed here", inserting
//!    every position, those inside a match included. The table is
//!    zero-filled per unit and has **no "empty" marker and no validity
//!    test**: an untouched slot reads as position 0. That is sound
//!    because a candidate is only ever accepted after its four bytes
//!    compared equal to the current four — and position 0's four bytes
//!    can equal the current four only if the current hash is position
//!    0's own hash, in which case this slot is the one position 0 was
//!    inserted into (the fill *is* that insertion) and is not
//!    untouched. The scan starts at position 1, so a candidate is
//!    always strictly behind the cursor. What this buys is measured: a
//!    test for "slot in use" is a branch taken with probability equal
//!    to the table's occupancy (0 → 63 % across a 64 KiB unit of
//!    noise), a coin flip behind a cache miss — 6–7 ns/B on a
//!    synthetic-DAS minute with it, 1.9–2.2 ns/B without (1.4 on the
//!    three mantissa planes, 4 on the sign/exponent plane, whose 3 400
//!    four-byte matches per 16 KiB are mispredictions of their own).
//!    Candidates are compared as one `u32`, matches extended eight
//!    bytes at a time, and the table is a `[u32; 65536]` indexed by a
//!    16-bit hash, so its lookups carry no bounds check. What lost: a
//!    table that is never filled, its positions stamped with a
//!    per-unit base and a slot valid iff its stamp is at least the base
//!    — 5.05 ns/B with that test as a branch; 2.31 written as a select
//!    to position 0, against 2.16 for the fill in the same run, and only
//!    for as long as the compiler keeps the select a select (the fill is
//!    4.7 µs a unit; the stamped table would win on chunks of a few
//!    hundred bytes, which no caller writes). And writing tokens into
//!    reserved space by index instead of pushing them (2.15 against
//!    2.16 ns/B: the emission is not where the time goes).
//! 3. **Fall back.** A token stream that is not shorter than the unit
//!    is truncated off the tail again and the unit's little-endian
//!    bytes are appended in its place.
//!
//! The token stream is the one the first encoder of this format
//! produced — same hash, same insertion order, same length and
//! distance limits — and that encoder survives as the `#[cfg(test)]`
//! `reference` the tests compare stored bytes against.

use crate::error::DasfError;
use crate::{Dtype, Element, Result};

/// Compression codec of one stored unit (or requested for a dataset).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Codec {
    /// Identity: stored bytes are the raw little-endian payload.
    Raw,
    /// Byte-shuffle by element width, then LZ/RLE. Lossless.
    ShuffleLz,
    /// Quantise floats to a grid of step `2 × bound`, then compress the
    /// integers losslessly. Guarantees `|x − x̂| ≤ bound` element-wise,
    /// `x̂` being the value a reader gets back: a unit with a sample
    /// that would miss it is stored lossless instead.
    Quant {
        /// Maximum absolute error permitted per sample.
        bound: f64,
    },
}

/// On-disk codec tags (one byte in the v4 unit header).
pub(crate) const TAG_RAW: u8 = 0;
pub(crate) const TAG_SHUFFLE_LZ: u8 = 1;
pub(crate) const TAG_QUANT: u8 = 2;

impl Codec {
    /// Parse a user-facing codec spec: `raw`, `shuffle-lz`, or
    /// `quant:<bound>` with a finite positive error bound.
    pub fn parse(s: &str) -> Option<Codec> {
        match s {
            "raw" => Some(Codec::Raw),
            "shuffle-lz" => Some(Codec::ShuffleLz),
            _ => s
                .strip_prefix("quant:")
                .and_then(|b| b.parse::<f64>().ok())
                .filter(|b| b.is_finite() && *b > 0.0)
                .map(|bound| Codec::Quant { bound }),
        }
    }

    /// The spec string [`Codec::parse`] accepts for this codec.
    pub fn label(&self) -> String {
        match self {
            Codec::Raw => "raw".into(),
            Codec::ShuffleLz => "shuffle-lz".into(),
            Codec::Quant { bound } => format!("quant:{bound}"),
        }
    }

    pub(crate) fn tag(&self) -> u8 {
        match self {
            Codec::Raw => TAG_RAW,
            Codec::ShuffleLz => TAG_SHUFFLE_LZ,
            Codec::Quant { .. } => TAG_QUANT,
        }
    }
}

// ---------------------------------------------------------------------
// LZ with RLE-capable overlapping matches
// ---------------------------------------------------------------------

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 131; // (0x7F) + MIN_MATCH
const MAX_LITERAL_RUN: usize = 128;
const MAX_DISTANCE: usize = u16::MAX as usize;
const HASH_BITS: u32 = 16;
const TABLE_SLOTS: usize = 1 << HASH_BITS;

/// Slot of the four bytes `window` (read little-endian) in the match
/// table: always below [`TABLE_SLOTS`].
#[inline]
fn hash4(window: u32) -> usize {
    (window.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn read_u32(src: &[u8], at: usize) -> u32 {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&src[at..at + 4]);
    u32::from_le_bytes(buf)
}

#[inline]
fn read_u64(src: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&src[at..at + 8]);
    u64::from_le_bytes(buf)
}

fn flush_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
    while !lits.is_empty() {
        let run = lits.len().min(MAX_LITERAL_RUN);
        out.push((run - 1) as u8);
        out.extend_from_slice(&lits[..run]);
        lits = &lits[run..];
    }
}

/// Length of the match between `src[cand..]` and `src[at..]`, whose
/// first [`MIN_MATCH`] bytes are known equal, capped at `max`
/// (`cand < at`, `at + max <= src.len()`).
#[inline]
fn match_len(src: &[u8], cand: usize, at: usize, max: usize) -> usize {
    let mut len = MIN_MATCH;
    while len + 8 <= max {
        let diff = read_u64(src, cand + len) ^ read_u64(src, at + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max && src[cand + len] == src[at + len] {
        len += 1;
    }
    len
}

/// Append the token stream of `src` to `out`. `table` is scratch: its
/// content on entry is ignored and nothing of `src` outlives the call
/// in a form the next call reads. See the module doc for why a
/// zero-filled table needs no "empty slot" test.
fn lz_append(table: &mut [u32; TABLE_SLOTS], src: &[u8], out: &mut Vec<u8>) {
    let n = src.len();
    // Also the insertion of position 0: its slot must hold 0.
    table.fill(0);
    let mut lit_start = 0usize;
    let mut i = 1usize;
    while i + MIN_MATCH <= n {
        let window = read_u32(src, i);
        let slot = &mut table[hash4(window)];
        let cand = *slot as usize;
        *slot = i as u32;
        // `cand < i`: every stored position is one already passed. The
        // distance test is for storage chunks longer than the window;
        // it also rejects an untouched slot more than a window back.
        if read_u32(src, cand) == window && i - cand <= MAX_DISTANCE {
            let len = match_len(src, cand, i, (n - i).min(MAX_MATCH));
            flush_literals(out, &src[lit_start..i]);
            let dist = ((i - cand) as u16).to_le_bytes();
            out.extend_from_slice(&[0x80 | (len - MIN_MATCH) as u8, dist[0], dist[1]]);
            // Seed the table through the matched span so the next
            // match can anchor anywhere inside it.
            let end = i + len;
            for at in i + 1..end.min(n - (MIN_MATCH - 1)) {
                table[hash4(read_u32(src, at))] = at as u32;
            }
            i = end;
            lit_start = end;
        } else {
            i += 1;
        }
    }
    flush_literals(out, &src[lit_start..]);
}

fn token_err(why: &str) -> DasfError {
    DasfError::Corrupt(format!("codec: bad LZ token stream ({why})"))
}

/// Most tokens of a noisy unit are 4-byte matches and short literal
/// runs. Wherever source and output have room for it, a copy no longer
/// than these moves one fixed-size block instead of calling `memcpy`
/// for a handful of bytes; what it writes past the token's end, the
/// next token overwrites.
const LITERAL_BLOCK: usize = 32;
const MATCH_BLOCK: usize = 8;

/// Undo [`lz_append`] into `out`, which comes back exactly `raw_len`
/// bytes long whatever it held before (on `Err`, with unspecified
/// content). Every length and distance in the stream is checked
/// against `raw_len` and against what has been produced so far before
/// a byte moves, so a hostile stream can neither read nor write
/// outside those `raw_len` bytes.
pub(crate) fn lz_decompress_into(src: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<()> {
    out.resize(raw_len, 0);
    let dst = &mut out[..];
    let (mut i, mut o) = (0usize, 0usize);
    while i < src.len() {
        let ctrl = src[i];
        i += 1;
        if ctrl < 0x80 {
            let run = ctrl as usize + 1;
            if i + run > src.len() {
                return Err(token_err("literal run past end"));
            }
            if o + run > raw_len {
                return Err(token_err("output overruns raw_len"));
            }
            match (
                src.get(i..i + LITERAL_BLOCK),
                dst.get_mut(o..o + LITERAL_BLOCK),
            ) {
                (Some(block), Some(room)) if run <= LITERAL_BLOCK => room.copy_from_slice(block),
                _ => dst[o..o + run].copy_from_slice(&src[i..i + run]),
            }
            i += run;
            o += run;
        } else {
            let len = (ctrl & 0x7F) as usize + MIN_MATCH;
            let Some(dist) = src.get(i..i + 2) else {
                return Err(token_err("match distance past end"));
            };
            let dist = u16::from_le_bytes([dist[0], dist[1]]) as usize;
            i += 2;
            if dist == 0 || dist > o {
                return Err(token_err("match distance before start"));
            }
            if o + len > raw_len {
                return Err(token_err("output overruns raw_len"));
            }
            let start = o - dist;
            if len <= MATCH_BLOCK && dist >= MATCH_BLOCK && o + MATCH_BLOCK <= raw_len {
                let mut block = [0u8; MATCH_BLOCK];
                block.copy_from_slice(&dst[start..start + MATCH_BLOCK]);
                dst[o..o + MATCH_BLOCK].copy_from_slice(&block);
            } else {
                // One block copy when the match lies wholly behind the
                // cursor. An overlapping match (dist < len, the RLE
                // case) repeats its `dist`-byte pattern, so each pass
                // may copy everything produced since `start` and the
                // span doubles.
                let mut done = 0;
                while done < len {
                    let n = (len - done).min(dist + done);
                    dst.copy_within(start..start + n, o + done);
                    done += n;
                }
            }
            o += len;
        }
    }
    if o != raw_len {
        return Err(token_err("output shorter than raw_len"));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Quantise / dequantise
// ---------------------------------------------------------------------

/// What a reader gets back for quantum `q` of an `f32` unit. The
/// encoder checks its error bound against this very function.
#[inline]
fn dequantise_f32(q: i32, step: f64) -> f32 {
    (q as f64 * step) as f32
}

/// What a reader gets back for quantum `q` of an `f64` unit.
#[inline]
fn dequantise_f64(q: i64, step: f64) -> f64 {
    q as f64 * step
}

/// The quantum of `x` on a grid of `step`, if `x` is finite, the
/// quantum fits `i32`, and a reader will see a value within `bound`.
#[inline]
fn quantise_f32(x: f32, step: f64, bound: f64) -> Option<i32> {
    let q = (x as f64 / step).round();
    if !q.is_finite() || q.abs() > i32::MAX as f64 {
        return None;
    }
    let q = q as i32;
    ((x as f64 - dequantise_f32(q, step) as f64).abs() <= bound).then_some(q)
}

/// [`quantise_f32`] for `f64` samples and `i64` quanta.
#[inline]
fn quantise_f64(x: f64, step: f64, bound: f64) -> Option<i64> {
    let q = (x / step).round();
    // Stay safely inside f64-exact i64 territory.
    if !q.is_finite() || q.abs() >= 9.0e18 {
        return None;
    }
    let q = q as i64;
    ((x - dequantise_f64(q, step)).abs() <= bound).then_some(q)
}

// ---------------------------------------------------------------------
// Unit encode / decode
// ---------------------------------------------------------------------

/// Widest element (`f64` / `i64`), hence the most byte planes a unit
/// has.
const MAX_WIDTH: usize = 8;

/// `v`'s little-endian bytes, zero-padded to the widest element.
#[inline]
fn le_bytes<T: Element>(v: T) -> [u8; MAX_WIDTH] {
    let mut bytes = [0u8; MAX_WIDTH];
    v.put_le(&mut bytes);
    bytes
}

/// Fill `planes` with the byte planes of `data` as stored: plane `k`
/// holds byte `k` of every element, so byte `k` of element `i` of `n`
/// lands at `k * n + i`. Neighbouring DAS samples differ mostly in
/// their low-order bytes, so the planes of the high-order bytes become
/// long near-constant runs the LZ stage eats. `stored` gives the
/// little-endian bytes an element is stored as, or `None` to abandon
/// the unit: `scatter` then returns `false` with the planes unspecified.
fn scatter<T: Element>(
    planes: &mut Vec<u8>,
    data: &[T],
    mut stored: impl FnMut(T) -> Option<[u8; MAX_WIDTH]>,
) -> bool {
    let width = std::mem::size_of::<T>();
    let n = data.len();
    // `width` planes of `n` bytes, each written before it is read.
    planes.resize(std::mem::size_of_val(data), 0);
    if n == 0 {
        return true;
    }
    let mut plane: [&mut [u8]; MAX_WIDTH] = Default::default();
    for (p, chunk) in plane.iter_mut().zip(planes.chunks_exact_mut(n)) {
        *p = chunk;
    }
    for (i, &v) in data.iter().enumerate() {
        let Some(bytes) = stored(v) else {
            return false;
        };
        for k in 0..width {
            plane[k][i] = bytes[k];
        }
    }
    true
}

/// The write side's scratch, owned by one `Writer`: the match table
/// (256 KiB) and the byte planes of the unit being encoded. Nothing in
/// it carries from one unit to the next.
pub(crate) struct Encoder {
    table: Box<[u32; TABLE_SLOTS]>,
    planes: Vec<u8>,
}

impl Encoder {
    pub(crate) fn new() -> Encoder {
        let table: Box<[u32]> = vec![0u32; TABLE_SLOTS].into_boxed_slice();
        Encoder {
            table: table.try_into().expect("TABLE_SLOTS entries"),
            planes: Vec::new(),
        }
    }

    /// Append the stored bytes of one unit — the elements `data` under
    /// `codec` — to `out`, and return the codec they are stored in:
    /// `Raw` when that was asked for or the encoding did not shrink the
    /// unit (incompressible data, or a quantised stream that did not
    /// pay for itself), the lossless `ShuffleLz` when `Quant` could not
    /// quantise the unit (not floats, a non-finite or out-of-range
    /// sample, or one a reader would see further than `bound` away).
    pub(crate) fn encode_unit<T: Element>(
        &mut self,
        codec: Codec,
        data: &[T],
        out: &mut Vec<u8>,
    ) -> Codec {
        let start = out.len();
        let raw_len = std::mem::size_of_val(data);
        let used = match codec {
            Codec::Raw => None,
            Codec::Quant { bound } if self.quantise(data, bound) => Some(codec),
            Codec::ShuffleLz | Codec::Quant { .. } => {
                scatter(&mut self.planes, data, |v| Some(le_bytes(v)));
                Some(Codec::ShuffleLz)
            }
        };
        if let Some(used) = used {
            lz_append(&mut self.table, &self.planes, out);
            if out.len() - start < raw_len {
                return used;
            }
            out.truncate(start);
        }
        out.resize(start + raw_len, 0);
        let width = std::mem::size_of::<T>();
        for (&v, bytes) in data.iter().zip(out[start..].chunks_exact_mut(width)) {
            v.put_le(bytes);
        }
        Codec::Raw
    }

    /// Scatter `data` as quanta on a grid of step `2 × bound`; `false`
    /// when the unit has to take the lossless path instead.
    fn quantise<T: Element>(&mut self, data: &[T], bound: f64) -> bool {
        if !(bound.is_finite() && bound > 0.0) {
            return false;
        }
        let step = 2.0 * bound;
        match T::DTYPE {
            Dtype::F32 => scatter(&mut self.planes, data, |v| {
                let b = le_bytes(v);
                let x = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                quantise_f32(x, step, bound).map(le_bytes)
            }),
            Dtype::F64 => scatter(&mut self.planes, data, |v| {
                quantise_f64(f64::from_le_bytes(le_bytes(v)), step, bound).map(le_bytes)
            }),
            _ => false,
        }
    }
}

/// One stored unit with its LZ stage undone, borrowed from the stored
/// bytes or from the caller's scratch. Elements are still in stored
/// form; [`Unit::copy_to`] finishes the decode on the way out.
pub(crate) enum Unit<'a> {
    /// Little-endian elements in order (a `Raw` unit).
    Plain(&'a [u8]),
    /// One plane per element byte: byte `k` of element `i` of `n` is at
    /// `k * n + i` (a `ShuffleLz` unit).
    Planes(&'a [u8]),
    /// Planes of integers on a grid of `step` (a `Quant` unit).
    Quanta { planes: &'a [u8], step: f64 },
}

/// Undo the LZ stage of one stored unit that decodes to `raw_len`
/// bytes. `stored` must already have passed its checksum; a malformed
/// token stream here means the writer or the object table is wrong,
/// surfaced as [`DasfError::Corrupt`].
pub(crate) fn open_unit<'a>(
    codec: Codec,
    stored: &'a [u8],
    raw_len: usize,
    scratch: &'a mut Vec<u8>,
) -> Result<Unit<'a>> {
    match codec {
        Codec::Raw if stored.len() == raw_len => Ok(Unit::Plain(stored)),
        Codec::Raw => Err(token_err("raw unit length mismatch")),
        Codec::ShuffleLz => {
            lz_decompress_into(stored, raw_len, scratch)?;
            Ok(Unit::Planes(scratch))
        }
        Codec::Quant { bound } => {
            lz_decompress_into(stored, raw_len, scratch)?;
            Ok(Unit::Quanta {
                planes: scratch,
                step: 2.0 * bound,
            })
        }
    }
}

impl Unit<'_> {
    /// Decode elements `lo .. lo + dst.len()` of the unit into `dst`.
    /// `T` must be the dataset's element type, and for a `Quant` unit a
    /// float type — the reader checks both before it opens a unit.
    ///
    /// # Panics
    /// Panics when the range runs past the end of the unit.
    pub(crate) fn copy_to<T: Element>(&self, lo: usize, dst: &mut [T]) {
        let width = std::mem::size_of::<T>();
        match *self {
            Unit::Plain(bytes) => {
                let bytes = &bytes[lo * width..(lo + dst.len()) * width];
                for (d, b) in dst.iter_mut().zip(bytes.chunks_exact(width)) {
                    *d = T::read_le(b);
                }
            }
            Unit::Planes(planes) => gather(planes, lo, dst, T::read_le),
            Unit::Quanta { planes, step } => gather(planes, lo, dst, |b| match T::DTYPE {
                Dtype::F32 => T::read_le(&dequantise_f32(i32::read_le(b), step).to_le_bytes()),
                Dtype::F64 => T::read_le(&dequantise_f64(i64::read_le(b), step).to_le_bytes()),
                other => unreachable!("quant unit with non-float dtype {}", other.name()),
            }),
        }
    }
}

/// The inverse of [`scatter`], fused with the element decode: collect
/// the bytes of elements `lo .. lo + dst.len()` from their planes and
/// hand each element's little-endian bytes to `decode`.
fn gather<T: Element>(planes: &[u8], lo: usize, dst: &mut [T], decode: impl Fn(&[u8]) -> T) {
    let width = std::mem::size_of::<T>();
    let n = planes.len() / width;
    // One slice per plane, each exactly `dst.len()` long, so the loop
    // below indexes them without bounds checks.
    let mut plane: [&[u8]; MAX_WIDTH] = [&[]; MAX_WIDTH];
    for (k, p) in plane.iter_mut().enumerate().take(width) {
        *p = &planes[k * n + lo..][..dst.len()];
    }
    for (i, d) in dst.iter_mut().enumerate() {
        let mut bytes = [0u8; MAX_WIDTH];
        for k in 0..width {
            bytes[k] = plane[k][i];
        }
        *d = decode(&bytes[..width]);
    }
}

/// Both stages as they were before [`Unit`] and [`Encoder`]: every unit
/// expanded to, or built from, its raw little-endian bytes through
/// fresh vectors. Kept as the bit-exact reference the tests here, the
/// reader's equivalence tests and the writer's compare the fused paths
/// against. One deliberate difference from the first encoder:
/// `quantise` refuses a unit when a reader would see a sample further
/// than `bound` away (it used to trust `q · step` in `f64`).
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    fn shuffle_width(dtype: Dtype) -> usize {
        dtype.size().max(1)
    }

    pub(crate) fn shuffle(data: &[u8], elem: usize) -> Vec<u8> {
        let n = data.len() / elem;
        let mut out = vec![0u8; data.len()];
        for k in 0..elem {
            let plane = &mut out[k * n..(k + 1) * n];
            for (i, slot) in plane.iter_mut().enumerate() {
                *slot = data[i * elem + k];
            }
        }
        out
    }

    fn hash4(window: &[u8]) -> usize {
        let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
        (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
    }

    pub(crate) fn lz_compress(src: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(src.len() / 2 + 16);
        let mut head = vec![u32::MAX; 1 << HASH_BITS];
        let n = src.len();
        let mut lit_start = 0usize;
        let mut i = 0usize;
        while i + MIN_MATCH <= n {
            let h = hash4(&src[i..]);
            let cand = head[h] as usize;
            head[h] = i as u32;
            if cand != u32::MAX as usize
                && i - cand <= MAX_DISTANCE
                && src[cand..cand + MIN_MATCH] == src[i..i + MIN_MATCH]
            {
                let max = (n - i).min(MAX_MATCH);
                let mut len = MIN_MATCH;
                while len < max && src[cand + len] == src[i + len] {
                    len += 1;
                }
                flush_literals(&mut out, &src[lit_start..i]);
                out.push(0x80 | (len - MIN_MATCH) as u8);
                out.extend_from_slice(&((i - cand) as u16).to_le_bytes());
                let end = i + len;
                i += 1;
                while i < end && i + MIN_MATCH <= n {
                    head[hash4(&src[i..])] = i as u32;
                    i += 1;
                }
                i = end;
                lit_start = end;
            } else {
                i += 1;
            }
        }
        flush_literals(&mut out, &src[lit_start..]);
        out
    }

    fn quantise(raw: &[u8], dtype: Dtype, bound: f64) -> Option<Vec<u8>> {
        if !(bound.is_finite() && bound > 0.0) {
            return None;
        }
        let step = 2.0 * bound;
        let mut out = Vec::with_capacity(raw.len());
        match dtype {
            Dtype::F32 => {
                for c in raw.chunks_exact(4) {
                    let x = f32::from_le_bytes([c[0], c[1], c[2], c[3]]) as f64;
                    let q = (x / step).round();
                    if !q.is_finite() || q.abs() > i32::MAX as f64 {
                        return None;
                    }
                    let seen = (q as i32 as f64 * step) as f32;
                    if (x - seen as f64).abs() > bound {
                        return None;
                    }
                    out.extend_from_slice(&(q as i32).to_le_bytes());
                }
            }
            Dtype::F64 => {
                for c in raw.chunks_exact(8) {
                    let x = f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
                    let q = (x / step).round();
                    if !q.is_finite() || q.abs() >= 9.0e18 {
                        return None;
                    }
                    if (x - q as i64 as f64 * step).abs() > bound {
                        return None;
                    }
                    out.extend_from_slice(&(q as i64).to_le_bytes());
                }
            }
            _ => return None,
        }
        Some(out)
    }

    /// `None` when the unit should be stored raw, else the codec used
    /// and the stored bytes.
    pub(crate) fn encode_unit(codec: Codec, raw: &[u8], dtype: Dtype) -> Option<(Codec, Vec<u8>)> {
        let lossless = |raw: &[u8]| {
            let enc = lz_compress(&shuffle(raw, shuffle_width(dtype)));
            (enc.len() < raw.len()).then_some((Codec::ShuffleLz, enc))
        };
        match codec {
            Codec::Raw => None,
            Codec::ShuffleLz => lossless(raw),
            Codec::Quant { bound } => match quantise(raw, dtype, bound) {
                Some(quanta) => {
                    let enc = lz_compress(&shuffle(&quanta, shuffle_width(dtype)));
                    (enc.len() < raw.len()).then_some((Codec::Quant { bound }, enc))
                }
                None => lossless(raw),
            },
        }
    }

    pub(crate) fn unshuffle_into(planes: &[u8], elem: usize, out: &mut Vec<u8>) {
        let n = planes.len() / elem;
        let base = out.len();
        out.resize(base + planes.len(), 0);
        let dst = &mut out[base..];
        for k in 0..elem {
            let plane = &planes[k * n..(k + 1) * n];
            for (i, &b) in plane.iter().enumerate() {
                dst[i * elem + k] = b;
            }
        }
    }

    pub(crate) fn lz_decompress(src: &[u8], raw_len: usize) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(raw_len);
        let mut i = 0usize;
        while i < src.len() {
            let ctrl = src[i];
            i += 1;
            if ctrl < 0x80 {
                let run = ctrl as usize + 1;
                if i + run > src.len() {
                    return Err(token_err("literal run past end"));
                }
                out.extend_from_slice(&src[i..i + run]);
                i += run;
            } else {
                let len = (ctrl & 0x7F) as usize + MIN_MATCH;
                if i + 2 > src.len() {
                    return Err(token_err("match distance past end"));
                }
                let dist = u16::from_le_bytes([src[i], src[i + 1]]) as usize;
                i += 2;
                if dist == 0 || dist > out.len() {
                    return Err(token_err("match distance before start"));
                }
                let start = out.len() - dist;
                // Byte-at-a-time: overlapping copies (dist < len) are the
                // RLE case and must read bytes the copy itself produced.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            if out.len() > raw_len {
                return Err(token_err("output overruns raw_len"));
            }
        }
        if out.len() != raw_len {
            return Err(token_err("output shorter than raw_len"));
        }
        Ok(out)
    }

    fn dequantise_into(quanta: &[u8], dtype: Dtype, bound: f64, out: &mut Vec<u8>) -> Result<()> {
        let step = 2.0 * bound;
        match dtype {
            Dtype::F32 => {
                for c in quanta.chunks_exact(4) {
                    let q = i32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                    out.extend_from_slice(&((q as f64 * step) as f32).to_le_bytes());
                }
            }
            Dtype::F64 => {
                for c in quanta.chunks_exact(8) {
                    let q = i64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
                    out.extend_from_slice(&(q as f64 * step).to_le_bytes());
                }
            }
            other => {
                return Err(DasfError::Corrupt(format!(
                    "codec: quant unit with non-float dtype {}",
                    other.name()
                )))
            }
        }
        Ok(())
    }

    /// Decode one stored unit, appending exactly `raw_len` raw payload
    /// bytes to `out`.
    pub(crate) fn decode_unit(
        codec: Codec,
        stored: &[u8],
        raw_len: usize,
        dtype: Dtype,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        match codec {
            Codec::Raw => {
                if stored.len() != raw_len {
                    return Err(token_err("raw unit length mismatch"));
                }
                out.extend_from_slice(stored);
            }
            Codec::ShuffleLz => {
                let planes = lz_decompress(stored, raw_len)?;
                unshuffle_into(&planes, shuffle_width(dtype), out);
            }
            Codec::Quant { bound } => {
                let planes = lz_decompress(stored, raw_len)?;
                let mut quanta = Vec::with_capacity(raw_len);
                unshuffle_into(&planes, shuffle_width(dtype), &mut quanta);
                dequantise_into(&quanta, dtype, bound, out)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{decode_unit, lz_decompress, unshuffle_into};
    use super::*;
    use crate::element::{decode_slice, encode_slice};

    /// xorshift64: cheap deterministic test draws.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> usize {
            (self.next() >> 16) as usize % n as usize
        }
    }

    fn noise(seed: u64, n: usize) -> Vec<u8> {
        let mut rng = Draw(seed | 1);
        (0..n).map(|_| (rng.next() >> 32) as u8).collect()
    }

    /// Both decoders on one stream: same bytes, or the same error.
    fn decode_both(stream: &[u8], raw_len: usize) -> std::result::Result<Vec<u8>, String> {
        let old = lz_decompress(stream, raw_len).map_err(|e| e.to_string());
        let mut out = vec![0xEE; 7]; // stale content must not leak through
        let new = lz_decompress_into(stream, raw_len, &mut out)
            .map(|()| out)
            .map_err(|e| e.to_string());
        assert_eq!(new, old, "decoders disagree on {stream:?} / {raw_len}");
        new
    }

    /// The token stream of `src` from the encoder's match finder, which
    /// must be the reference's — behind whatever `out` already held, and
    /// whatever an earlier unit left in the table.
    fn lz_stream(src: &[u8]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.table.fill(0xDEAD_BEEF);
        let mut out = vec![0xA5; 3];
        lz_append(&mut enc.table, src, &mut out);
        assert_eq!(out[..3], [0xA5; 3]);
        let stream = out.split_off(3);
        assert!(
            stream == reference::lz_compress(src),
            "token stream of {} bytes ({:?}…) differs from the reference",
            src.len(),
            &src[..src.len().min(12)]
        );
        stream
    }

    fn lz_round_trip(data: &[u8]) {
        let enc = lz_stream(data);
        assert_eq!(decode_both(&enc, data.len()).unwrap(), data);
    }

    /// One unit through `enc` and through the reference: the same codec
    /// and the same stored bytes, appended behind what `out` held.
    fn encode_checked<T: Element>(enc: &mut Encoder, codec: Codec, data: &[T]) -> (Codec, Vec<u8>) {
        let raw = encode_slice(data);
        let (want_codec, want) = match reference::encode_unit(codec, &raw, T::DTYPE) {
            Some(encoded) => encoded,
            None => (Codec::Raw, raw),
        };
        let mut out = vec![0xA5; 3];
        let used = enc.encode_unit(codec, data, &mut out);
        assert_eq!(out[..3], [0xA5; 3]);
        let stored = out.split_off(3);
        assert_eq!(
            used,
            want_codec,
            "{codec:?} over {} {}",
            data.len(),
            T::DTYPE.name()
        );
        assert!(
            stored == want,
            "{codec:?} over {} {}: stored bytes differ from the reference",
            data.len(),
            T::DTYPE.name()
        );
        (used, stored)
    }

    /// [`encode_checked`] for a unit given as raw little-endian bytes.
    fn encode_raw<T: Element>(codec: Codec, raw: &[u8]) -> (Codec, Vec<u8>) {
        let data: Vec<T> = decode_slice(raw, raw.len() / std::mem::size_of::<T>());
        encode_checked(&mut Encoder::new(), codec, &data)
    }

    #[test]
    fn lz_round_trips_edge_shapes() {
        lz_round_trip(&[]);
        lz_round_trip(&[7]);
        lz_round_trip(&[1, 2, 3]);
        lz_round_trip(&vec![0u8; 100_000]); // long RLE
        lz_round_trip(&(0..=255u8).collect::<Vec<_>>()); // pure literals
        let mut mixed = Vec::new();
        for i in 0..5000u32 {
            mixed.extend_from_slice(&(i / 7).to_le_bytes());
        }
        lz_round_trip(&mixed);
        // Pseudo-random: mostly incompressible.
        lz_round_trip(&noise(0x9e3779b97f4a7c15, 10_000));
    }

    #[test]
    fn lz_compresses_runs() {
        let data = vec![42u8; 64 * 1024];
        let enc = lz_stream(&data);
        // Format ceiling: 3-byte tokens for 131-byte matches ≈ 43×.
        assert!(enc.len() < data.len() / 40, "RLE should crush constants");
    }

    #[test]
    fn lz_decoder_rejects_malformed_streams() {
        // Literal run past end.
        assert!(decode_both(&[5, 1, 2], 6).is_err());
        // Match with nothing behind it.
        assert!(decode_both(&[0x80, 1, 0], 4).is_err());
        // Zero distance.
        assert!(decode_both(&[0, 9, 0x80, 0, 0], 5).is_err());
        // Declared raw_len shorter than the stream decodes to.
        assert!(decode_both(&[3, 1, 2, 3, 4], 2).is_err());
        // Declared raw_len longer.
        assert!(decode_both(&[3, 1, 2, 3, 4], 9).is_err());
        // Match distance cut off by the end of the stream.
        assert!(decode_both(&[0, 9, 0x80, 1], 5).is_err());
    }

    #[test]
    fn lz_overlapping_matches_repeat_the_pattern() {
        // Seven literals, then one match of every length at the
        // distances where block copies and overlap meet.
        let prefix = [1u8, 2, 3, 4, 5, 6, 7];
        for len in MIN_MATCH..=MAX_MATCH {
            for dist in [1, 2, 3, len - 1, len] {
                if dist > prefix.len() {
                    continue;
                }
                let mut stream = vec![prefix.len() as u8 - 1];
                stream.extend_from_slice(&prefix);
                stream.push(0x80 | (len - MIN_MATCH) as u8);
                stream.extend_from_slice(&(dist as u16).to_le_bytes());
                let out = decode_both(&stream, prefix.len() + len).unwrap();
                for (k, &b) in out[prefix.len()..].iter().enumerate() {
                    assert_eq!(
                        b,
                        prefix[prefix.len() - dist + k % dist],
                        "len {len} dist {dist}"
                    );
                }
            }
        }
    }

    #[test]
    fn lz_decoders_agree_on_random_token_streams() {
        // Token soup: valid streams decode alike, and every way of
        // going wrong goes wrong alike (checked inside `decode_both`).
        for seed in 1..400u64 {
            let bytes = noise(seed, 96);
            let mut stream = Vec::new();
            let mut produced = 0usize;
            for pair in bytes.chunks_exact(3) {
                if pair[0] & 1 == 0 {
                    let run = pair[1] as usize % 40 + 1;
                    stream.push(run as u8 - 1);
                    stream.extend(noise(seed ^ produced as u64, run));
                    produced += run;
                } else {
                    let len = pair[1] as usize % 128 + MIN_MATCH;
                    // mostly valid distances, sometimes 0 or too far
                    let dist = (pair[2] as usize * 3) % (produced + 3);
                    stream.push(0x80 | (len - MIN_MATCH) as u8);
                    stream.extend_from_slice(&(dist as u16).to_le_bytes());
                    produced += len;
                }
            }
            let _ = decode_both(&stream, produced);
            let _ = decode_both(&stream[..stream.len() - 1], produced);
            let _ = decode_both(&stream, produced.saturating_sub(5));
        }
    }

    #[test]
    fn shuffle_round_trips() {
        fn check<T: Element>() {
            let width = std::mem::size_of::<T>();
            let raw: Vec<u8> = (0..(width * 37) as u32).map(|i| (i * 17) as u8).collect();
            let data: Vec<T> = decode_slice(&raw, 37);
            let mut planes = vec![0xEE; 5]; // stale content must not show
            assert!(scatter(&mut planes, &data, |v| Some(le_bytes(v))));
            assert_eq!(planes, reference::shuffle(&raw, width), "width {width}");
            let mut back = Vec::new();
            unshuffle_into(&planes, width, &mut back);
            assert_eq!(back, raw, "width {width}");
        }
        check::<u8>();
        check::<i16>();
        check::<f32>();
        check::<i32>();
        check::<f64>();
        check::<i64>();
    }

    /// `open_unit` + `copy_to` over sub-ranges of a small unit against
    /// the reference's raw bytes (compared as bytes: NaNs included), for
    /// one element type.
    fn unit_matches_reference<T: Element>(codec: Codec, raw: &[u8]) {
        let (used, stored) = encode_raw::<T>(codec, raw);
        let mut expect = Vec::new();
        decode_unit(used, &stored, raw.len(), T::DTYPE, &mut expect).unwrap();
        let width = std::mem::size_of::<T>();
        let n = raw.len() / width;
        let mut scratch = Vec::new();
        let unit = open_unit(used, &stored, raw.len(), &mut scratch).unwrap();
        for lo in [0, 1, n / 2, n] {
            for hi in [lo, (lo + 1).min(n), n] {
                let mut got = vec![T::default(); hi - lo];
                unit.copy_to(lo, &mut got);
                let mut bytes = Vec::new();
                got.iter().for_each(|v| v.write_le(&mut bytes));
                assert_eq!(bytes, expect[lo * width..hi * width], "{used:?} {lo}..{hi}");
            }
        }
    }

    #[test]
    fn fused_gather_matches_the_reference_for_every_width_and_codec() {
        // Slowly varying values: shuffle-lz and quant both engage.
        let smooth32: Vec<u8> = (0..700)
            .flat_map(|i| ((i / 9) as f32 * 0.25).to_le_bytes())
            .collect();
        let smooth64: Vec<u8> = (0..500)
            .flat_map(|i| ((i / 5) as f64 * -1.5).to_le_bytes())
            .collect();
        let steps16: Vec<u8> = (0..900)
            .flat_map(|i| (i / 11 - 40i16).to_le_bytes())
            .collect();
        let runs8: Vec<u8> = (0..1000).map(|i| (i / 50) as u8).collect();
        for codec in [Codec::Raw, Codec::ShuffleLz] {
            unit_matches_reference::<f32>(codec, &smooth32);
            unit_matches_reference::<f64>(codec, &smooth64);
            unit_matches_reference::<i16>(codec, &steps16);
            unit_matches_reference::<u8>(codec, &runs8);
            unit_matches_reference::<i32>(codec, &smooth32);
            unit_matches_reference::<i64>(codec, &smooth64);
            // incompressible: the per-unit raw fallback
            unit_matches_reference::<f32>(codec, &noise(5, 4096));
        }
        let quant = Codec::Quant { bound: 1e-3 };
        unit_matches_reference::<f32>(quant, &smooth32);
        unit_matches_reference::<f64>(quant, &smooth64);
        // a NaN makes quant fall back to lossless for the unit
        let mut with_nan = smooth32.clone();
        with_nan[..4].copy_from_slice(&f32::NAN.to_le_bytes());
        unit_matches_reference::<f32>(quant, &with_nan);
    }

    #[test]
    fn encode_unit_is_lossless_for_shuffle_lz() {
        let samples: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
        let raw: Vec<u8> = samples.iter().flat_map(|v| v.to_le_bytes()).collect();
        let (codec, stored) = encode_raw::<f32>(Codec::ShuffleLz, &raw);
        assert_eq!(codec, Codec::ShuffleLz);
        assert!(stored.len() < raw.len());
        let mut back = Vec::new();
        decode_unit(codec, &stored, raw.len(), Dtype::F32, &mut back).unwrap();
        assert_eq!(back, raw, "lossless codecs must be bit-exact");
    }

    #[test]
    fn encode_unit_falls_back_to_raw_on_noise() {
        let mut x = 0x243f6a8885a308d3u64;
        let raw: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        assert_eq!(encode_raw::<u8>(Codec::ShuffleLz, &raw), (Codec::Raw, raw));
    }

    #[test]
    fn quant_respects_the_error_bound() {
        let bound = 1e-3;
        let samples: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.37).cos() * 5.0).collect();
        let raw: Vec<u8> = samples.iter().flat_map(|v| v.to_le_bytes()).collect();
        let (codec, stored) = encode_raw::<f32>(Codec::Quant { bound }, &raw);
        assert_eq!(codec, Codec::Quant { bound });
        let mut back = Vec::new();
        decode_unit(codec, &stored, raw.len(), Dtype::F32, &mut back).unwrap();
        for (c, orig) in back.chunks_exact(4).zip(&samples) {
            let x = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let err = (x as f64 - *orig as f64).abs();
            assert!(err <= bound, "|{orig} - {x}| = {err} > {bound}");
        }
    }

    #[test]
    fn quant_falls_back_to_lossless_on_non_finite() {
        let samples = [1.0f32, f32::NAN, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0];
        let raw: Vec<u8> = samples.iter().flat_map(|v| v.to_le_bytes()).collect();
        let (codec, stored) = encode_raw::<f32>(Codec::Quant { bound: 0.5 }, &raw);
        assert_eq!(codec, Codec::ShuffleLz);
        let mut back = Vec::new();
        decode_unit(codec, &stored, raw.len(), Dtype::F32, &mut back).unwrap();
        assert_eq!(back, raw);
    }

    /// `n` bytes in stretches of what payloads hold: runs, short
    /// periods, ramps, noise, and copies of earlier stretches.
    fn mixture(seed: u64, n: usize) -> Vec<u8> {
        let mut rng = Draw(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut out: Vec<u8> = Vec::with_capacity(n);
        while out.len() < n {
            let longest = if rng.below(4) == 0 { 700 } else { 40 };
            let len = 1 + rng.below(longest);
            match rng.below(6) {
                0 => out.resize(out.len() + len, rng.next() as u8),
                1 => {
                    let period = 1 + rng.below(5);
                    let pat: Vec<u8> = (0..period).map(|_| rng.next() as u8).collect();
                    out.extend((0..len).map(|i| pat[i % period]));
                }
                2 => out.extend((0..len).map(|i| (i / 3) as u8)),
                3 if !out.is_empty() => {
                    let from = rng.below(out.len() as u64);
                    for i in 0..len {
                        out.push(out[from + i % (out.len() - from)]);
                    }
                }
                _ => out.extend((0..len).map(|_| (rng.next() >> 24) as u8)),
            }
        }
        out.truncate(n);
        out
    }

    /// `n` finite floats, steps with a little jitter, as bytes of
    /// `width`-byte elements. Under [`QUANT`] every one of them is
    /// quantised: its step is a power of two, so what a reader gets
    /// back is the grid point exactly.
    fn smooth(seed: u64, n: usize, width: usize) -> Vec<u8> {
        let mut rng = Draw(seed | 1);
        let mut out = Vec::with_capacity(n * width);
        for i in 0..n {
            let x = (i / 5 % 97) as f64 * 0.375 - 18.0 + (rng.below(64) as f64 - 32.0) / 4096.0;
            match width {
                4 => out.extend_from_slice(&(x as f32).to_le_bytes()),
                _ => out.extend_from_slice(&x.to_le_bytes()),
            }
        }
        out
    }

    const QUANT: Codec = Codec::Quant { bound: 1.0 / 64.0 };

    #[test]
    fn encoder_stores_the_reference_bytes_for_every_type_codec_and_unit_length() {
        fn check<T: Element>() {
            let width = std::mem::size_of::<T>();
            let float = matches!(T::DTYPE, Dtype::F32 | Dtype::F64);
            let mut enc = Encoder::new();
            for bytes in [0usize, 1, 3, 4, 5, 131, 132, 65_535, 65_536] {
                // that many elements where small, that many bytes where not
                let n = if bytes <= 132 { bytes } else { bytes / width };
                for (i, raw) in [
                    mixture(n as u64 + 1, n * width),
                    vec![0u8; n * width],
                    smooth(n as u64, n, width),
                ]
                .into_iter()
                .enumerate()
                {
                    let data: Vec<T> = decode_slice(&raw, n);
                    for codec in [Codec::Raw, Codec::ShuffleLz, QUANT] {
                        let (used, _) = encode_checked(&mut enc, codec, &data);
                        // the smooth floats are what `quant` is for
                        if float && i == 2 && codec == QUANT && n >= 131 {
                            assert_eq!(used, QUANT, "{n} {}", T::DTYPE.name());
                        }
                        assert!(float || used != QUANT);
                    }
                }
            }
        }
        check::<f32>();
        check::<f64>();
        check::<i16>();
        check::<i32>();
        check::<i64>();
        check::<u8>();
    }

    #[test]
    fn match_finder_emits_the_reference_stream_on_periodic_data() {
        // All-zero and short periods: overlapping matches cut at
        // MAX_MATCH. Periods around MAX_MATCH: every split of a long
        // repeat into 131-byte tokens and its remainder.
        for period in [
            1usize, 2, 3, 4, 5, 7, 8, 9, 64, 129, 130, 131, 132, 133, 262, 263,
        ] {
            for n in [period + 3, period * 2 + 5, 1000, 4096 + period] {
                let zero: Vec<u8> = vec![0; n];
                lz_round_trip(&zero);
                let cyc: Vec<u8> = (0..n).map(|i| (i % period * 37 + 11) as u8).collect();
                lz_round_trip(&cyc);
                // a noisy pattern, so the period is the only repeat
                let pat = noise(period as u64, period);
                let rep: Vec<u8> = (0..n).map(|i| pat[i % period]).collect();
                lz_round_trip(&rep);
            }
        }
        // Matches whose extension ends 0..=8 bytes into an 8-byte
        // compare, and at the end of the unit.
        for tail in 0..20 {
            let mut src = noise(77, 300);
            let copy = src[40..40 + 4 + tail].to_vec();
            src.extend_from_slice(&copy);
            lz_round_trip(&src);
            src.push(0xFF ^ src[40 + 4 + tail]);
            lz_round_trip(&src);
        }
    }

    #[test]
    fn an_untouched_table_slot_never_stands_in_for_position_zero() {
        let unit = 65_536usize;
        // The unit's first four bytes again at 1 (a run), at 4, and at
        // the last position that still has four bytes.
        lz_round_trip(&[9u8; 64]);
        for at in [4usize, 5, 130, 131, 65_531, 65_532] {
            let mut src = noise(at as u64, unit);
            let head = [src[0], src[1], src[2], src[3]];
            src[at..at + 4].copy_from_slice(&head);
            lz_round_trip(&src);
        }
        // A first window that never recurs: a counter's bytes.
        let counter: Vec<u8> = (0..16_384u32)
            .flat_map(|i| (i * 2 + 1).to_le_bytes())
            .collect();
        lz_round_trip(&counter);
        // Four zero bytes hash to slot 0, whose untouched value is also
        // position 0: at the start and again later; and only later, when
        // slot 0 is untouched and position 0 holds something else.
        let mut zeros_first = noise(5, 4096);
        zeros_first[..4].fill(0);
        zeros_first[1000..1004].fill(0);
        zeros_first[3000..3008].fill(0);
        lz_round_trip(&zeros_first);
        let mut zeros_later = noise(6, 4096);
        zeros_later[1000..1004].fill(0);
        zeros_later[3000..3008].fill(0);
        lz_round_trip(&zeros_later);
        // A later window in position 0's slot that is not position 0's
        // bytes, then position 0's bytes themselves.
        let head = 0x0403_0201u32;
        let twin = (0u32..)
            .find(|&v| v != head && hash4(v) == hash4(head))
            .expect("a colliding window");
        let mut collide = noise(7, 600);
        collide[..4].copy_from_slice(&head.to_le_bytes());
        collide[200..204].copy_from_slice(&twin.to_le_bytes());
        collide[400..404].copy_from_slice(&head.to_le_bytes());
        collide[500..504].copy_from_slice(&twin.to_le_bytes());
        lz_round_trip(&collide);
        // Every slot untouched but the candidate's own: windows shorter
        // than a match, and exactly one.
        for n in 0..=9 {
            lz_round_trip(&vec![3u8; n]);
            lz_round_trip(&noise(n as u64 + 1, n));
        }
    }

    #[test]
    fn a_repeat_further_back_than_the_window_is_not_a_match() {
        // A 200 KiB storage chunk: 100 KiB of noise, twice. The only
        // repeats are 102 400 bytes back, which no token can address.
        let half = noise(11, 100 * 1024);
        let far: Vec<u8> = [&half[..], &half[..]].concat();
        let stream = lz_stream(&far);
        // (all literals, but for the odd four bytes noise repeats nearby)
        assert!(stream.len() > far.len() + far.len() / MAX_LITERAL_RUN - 32);
        assert_eq!(decode_both(&stream, far.len()).unwrap(), far);
        assert_eq!(
            encode_raw::<u8>(Codec::ShuffleLz, &far),
            (Codec::Raw, far.clone())
        );
        // At exactly the window it is one; a byte further it is not.
        for (gap, matched) in [(MAX_DISTANCE, true), (MAX_DISTANCE + 1, false)] {
            let mut src = noise(12, gap + 64);
            let head = src[..32].to_vec();
            src[gap..gap + 32].copy_from_slice(&head);
            let stream = lz_stream(&src);
            // a 32-byte match saves 29 bytes against literals
            let literals = src.len() + src.len().div_ceil(MAX_LITERAL_RUN);
            assert_eq!(stream.len() + 20 < literals, matched, "gap {gap}");
            assert_eq!(decode_both(&stream, src.len()).unwrap(), src);
        }
        // As elements: the planes of a 200 KiB f32 chunk are 50 KiB
        // each, so the same data now repeats inside the window.
        let (used, stored) = encode_raw::<f32>(Codec::ShuffleLz, &far);
        assert_eq!(used, Codec::ShuffleLz);
        assert!(stored.len() < far.len());
    }

    #[test]
    fn nothing_of_one_unit_shows_in_the_next() {
        // Noise units (stored raw, their token stream truncated off the
        // tail again) between compressible ones of other lengths and
        // types, all through one encoder — each against a reference
        // that starts from nothing.
        let mut enc = Encoder::new();
        for round in 0..6u64 {
            let len = [65_536usize, 4_000, 131, 65_532, 8, 30_000][round as usize];
            let loud = noise(round + 1, len);
            let quiet = mixture(round + 9, len);
            let floats = smooth(round, len / 8, 4);
            assert_eq!(
                encode_checked(&mut enc, Codec::ShuffleLz, &loud).0,
                Codec::Raw
            );
            encode_checked(&mut enc, Codec::ShuffleLz, &quiet);
            encode_checked::<f32>(&mut enc, QUANT, &decode_slice(&floats, len / 8));
            encode_checked::<i64>(&mut enc, QUANT, &decode_slice(&quiet, len / 8));
            encode_checked::<f64>(&mut enc, QUANT, &decode_slice(&loud, len / 8));
            encode_checked(&mut enc, Codec::Raw, &quiet);
        }
    }

    #[test]
    fn encoder_matches_the_reference_on_random_mixtures() {
        fn check<T: Element>(enc: &mut Encoder, codec: Codec, raw: &[u8]) {
            let data: Vec<T> = decode_slice(raw, raw.len() / std::mem::size_of::<T>());
            let (used, stored) = encode_checked(enc, codec, &data);
            // …and what was stored decodes to what the reference decodes.
            let raw_len = std::mem::size_of_val(&data[..]);
            let mut want = Vec::new();
            decode_unit(used, &stored, raw_len, T::DTYPE, &mut want).unwrap();
            let mut scratch = Vec::new();
            let unit = open_unit(used, &stored, raw_len, &mut scratch).unwrap();
            let mut got = vec![T::default(); data.len()];
            unit.copy_to(0, &mut got);
            assert_eq!(encode_slice(&got), want);
        }
        let mut enc = Encoder::new();
        for seed in 0..400u64 {
            let mut rng = Draw(seed * 2 + 1);
            let n = rng.below(if seed % 8 == 0 { 70_000 } else { 3_000 });
            let codec = [Codec::ShuffleLz, QUANT, Codec::Quant { bound: 3.0 }][rng.below(3)];
            let raw = if rng.below(3) == 0 {
                smooth(seed, n / 4, 4 << rng.below(2))
            } else {
                mixture(seed, n)
            };
            match rng.below(6) {
                0 => check::<f32>(&mut enc, codec, &raw),
                1 => check::<f64>(&mut enc, codec, &raw),
                2 => check::<i16>(&mut enc, codec, &raw),
                3 => check::<i32>(&mut enc, codec, &raw),
                4 => check::<i64>(&mut enc, codec, &raw),
                _ => check::<u8>(&mut enc, codec, &raw),
            }
        }
    }

    #[test]
    fn quant_sends_a_unit_a_reader_would_see_out_of_bound_down_the_lossless_path() {
        // `bound` between ½ and 1 ulp of the samples: `q · step` is
        // within the bound in f64, the f32 a reader gets is a whole ulp
        // away. One such sample among fine ones decides for its unit.
        let bound = 4e-5f64;
        let fine: Vec<f32> = (0..4096).map(|i| (i / 8) as f32 * 0.5).collect();
        assert_eq!(
            encode_checked(&mut Encoder::new(), Codec::Quant { bound }, &fine).0,
            Codec::Quant { bound }
        );
        let over = (0..200_000u32)
            .map(|i| f32::from_bits(1000.0f32.to_bits() + i))
            .find(|&x| {
                let q = (x as f64 / (2.0 * bound)).round();
                (x as f64 - q * 2.0 * bound).abs() <= bound
                    && (x as f64 - dequantise_f32(q as i32, 2.0 * bound) as f64).abs() > bound
            })
            .expect("a float near 1000 the decoder's cast moves out of bound");
        assert_eq!(quantise_f32(over, 2.0 * bound, bound), None);
        let mut spoiled = fine.clone();
        spoiled[2049] = over;
        let (used, stored) = encode_checked(&mut Encoder::new(), Codec::Quant { bound }, &spoiled);
        assert_eq!(used, Codec::ShuffleLz);
        let mut back = Vec::new();
        decode_unit(used, &stored, spoiled.len() * 4, Dtype::F32, &mut back).unwrap();
        assert_eq!(back, encode_slice(&spoiled));
        // f64 units are checked against what their decoder returns too.
        let wide: Vec<f64> = (0..2048).map(|i| 3.0 + i as f64 * 1e-9).collect();
        for bound in [1e-3, 1e-9, 2.5e-16, 1e-17] {
            let codec = Codec::Quant { bound };
            let (used, stored) = encode_checked(&mut Encoder::new(), codec, &wide);
            if used == codec {
                let mut scratch = Vec::new();
                let unit = open_unit(used, &stored, wide.len() * 8, &mut scratch).unwrap();
                let mut got = vec![0f64; wide.len()];
                unit.copy_to(0, &mut got);
                assert!(wide.iter().zip(&got).all(|(x, y)| (x - y).abs() <= bound));
            }
        }
    }

    #[test]
    fn parse_and_label_round_trip() {
        assert_eq!(Codec::parse("raw"), Some(Codec::Raw));
        assert_eq!(Codec::parse("shuffle-lz"), Some(Codec::ShuffleLz));
        assert_eq!(
            Codec::parse("quant:0.001"),
            Some(Codec::Quant { bound: 0.001 })
        );
        assert_eq!(Codec::parse("quant:0"), None);
        assert_eq!(Codec::parse("quant:-1"), None);
        assert_eq!(Codec::parse("quant:inf"), None);
        assert_eq!(Codec::parse("zstd"), None);
        for c in [Codec::Raw, Codec::ShuffleLz, Codec::Quant { bound: 0.001 }] {
            assert_eq!(Codec::parse(&c.label()), Some(c));
        }
    }
}
