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
//!   holding non-finite or out-of-range samples fall back to the
//!   lossless path rather than corrupt them.
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
    /// integers losslessly. Guarantees `|x − x̂| ≤ bound` element-wise.
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
// Byte shuffle
// ---------------------------------------------------------------------

/// Transpose `data` (n elements of `elem` bytes) into `elem` byte
/// planes: plane k holds byte k of every element. Neighbouring DAS
/// samples differ mostly in their low-order bytes, so the planes of the
/// high-order bytes become long near-constant runs the LZ stage eats.
fn shuffle(data: &[u8], elem: usize) -> Vec<u8> {
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

// ---------------------------------------------------------------------
// LZ with RLE-capable overlapping matches
// ---------------------------------------------------------------------

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 131; // (0x7F) + MIN_MATCH
const MAX_LITERAL_RUN: usize = 128;
const MAX_DISTANCE: usize = u16::MAX as usize;
const HASH_BITS: u32 = 16;

fn hash4(window: &[u8]) -> usize {
    let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

fn flush_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
    while !lits.is_empty() {
        let run = lits.len().min(MAX_LITERAL_RUN);
        out.push((run - 1) as u8);
        out.extend_from_slice(&lits[..run]);
        lits = &lits[run..];
    }
}

fn lz_compress(src: &[u8]) -> Vec<u8> {
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
            // Seed the hash table through the matched span so the next
            // match can anchor anywhere inside it.
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

/// Undo [`lz_compress`] into `out`, which comes back exactly `raw_len`
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

/// Quantise a float unit to little-endian integers on a grid of step
/// `2 × bound`. Returns `None` (caller falls back to lossless) when the
/// unit holds non-finite samples, a quantum overflows its integer
/// width, or the dtype is not a float type.
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
                out.extend_from_slice(&(q as i32).to_le_bytes());
            }
        }
        Dtype::F64 => {
            for c in raw.chunks_exact(8) {
                let x = f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
                let q = (x / step).round();
                // Stay safely inside f64-exact i64 territory.
                if !q.is_finite() || q.abs() >= 9.0e18 {
                    return None;
                }
                out.extend_from_slice(&(q as i64).to_le_bytes());
            }
        }
        _ => return None,
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Unit encode / decode
// ---------------------------------------------------------------------

/// Element width the shuffle stage uses for a unit of `dtype` under
/// `codec`. Quant replaces floats with same-width integers, so the
/// width never changes.
fn shuffle_width(dtype: Dtype) -> usize {
    dtype.size().max(1)
}

/// Encode one unit's raw payload bytes under `codec`. Returns `None`
/// when the unit should be stored raw — either the codec is `Raw`, or
/// encoding failed to shrink the unit (incompressible data, or a quant
/// fallback that still did not pay for itself). `Some((codec, bytes))`
/// reports the codec *actually* used, which may be the lossless
/// `ShuffleLz` when `Quant` could not quantise the unit.
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
                Dtype::F32 => T::read_le(&((i32::read_le(b) as f64 * step) as f32).to_le_bytes()),
                Dtype::F64 => T::read_le(&(i64::read_le(b) as f64 * step).to_le_bytes()),
                other => unreachable!("quant unit with non-float dtype {}", other.name()),
            }),
        }
    }
}

/// The inverse of [`shuffle`], fused with the element decode: collect
/// the bytes of elements `lo .. lo + dst.len()` from their planes and
/// hand each element's little-endian bytes to `decode`.
fn gather<T: Element>(planes: &[u8], lo: usize, dst: &mut [T], decode: impl Fn(&[u8]) -> T) {
    const MAX_WIDTH: usize = 8;
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

/// The decode stage as it was before [`Unit`]: every unit expanded to
/// its raw little-endian bytes through fresh vectors. Kept, unchanged,
/// as the bit-exact reference the tests here and the reader's
/// equivalence tests compare the fused path against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

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

    /// xorshift64: cheap deterministic test bytes.
    fn noise(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
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

    fn lz_round_trip(data: &[u8]) {
        let enc = lz_compress(data);
        assert_eq!(decode_both(&enc, data.len()).unwrap(), data);
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
        let enc = lz_compress(&data);
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
        for elem in [1usize, 2, 4, 8] {
            let data: Vec<u8> = (0..(elem * 37) as u32).map(|i| (i * 17) as u8).collect();
            let planes = shuffle(&data, elem);
            let mut back = Vec::new();
            unshuffle_into(&planes, elem, &mut back);
            assert_eq!(back, data, "elem width {elem}");
        }
    }

    /// `open_unit` + `copy_to` over sub-ranges of a small unit against
    /// the reference's raw bytes (compared as bytes: NaNs included), for
    /// one element type.
    fn unit_matches_reference<T: Element>(codec: Codec, raw: &[u8]) {
        let (used, stored) = match encode_unit(codec, raw, T::DTYPE) {
            Some((used, stored)) => (used, stored),
            None => (Codec::Raw, raw.to_vec()),
        };
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
        let (codec, stored) = encode_unit(Codec::ShuffleLz, &raw, Dtype::F32).unwrap();
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
        assert!(encode_unit(Codec::ShuffleLz, &raw, Dtype::U8).is_none());
    }

    #[test]
    fn quant_respects_the_error_bound() {
        let bound = 1e-3;
        let samples: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.37).cos() * 5.0).collect();
        let raw: Vec<u8> = samples.iter().flat_map(|v| v.to_le_bytes()).collect();
        let (codec, stored) = encode_unit(Codec::Quant { bound }, &raw, Dtype::F32).unwrap();
        assert_eq!(codec, Codec::Quant { bound });
        let mut back = Vec::new();
        decode_unit(codec, &stored, raw.len(), Dtype::F32, &mut back).unwrap();
        for (c, orig) in back.chunks_exact(4).zip(&samples) {
            let x = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let err = (x as f64 - *orig as f64).abs();
            // Small slack for the final f64→f32 cast of the midpoint.
            assert!(
                err <= bound + (x.abs() as f64) * 2.0 * f32::EPSILON as f64,
                "|{orig} - {x}| = {err} > {bound}"
            );
        }
    }

    #[test]
    fn quant_falls_back_to_lossless_on_non_finite() {
        let samples = [1.0f32, f32::NAN, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0];
        let raw: Vec<u8> = samples.iter().flat_map(|v| v.to_le_bytes()).collect();
        // Too small to compress either way is fine; what matters is that
        // a successful encode is NOT the quant codec.
        if let Some((codec, stored)) = encode_unit(Codec::Quant { bound: 0.5 }, &raw, Dtype::F32) {
            assert_eq!(codec, Codec::ShuffleLz);
            let mut back = Vec::new();
            decode_unit(codec, &stored, raw.len(), Dtype::F32, &mut back).unwrap();
            assert_eq!(back, raw);
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
