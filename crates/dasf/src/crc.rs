//! CRC32C (Castagnoli) — the integrity checksum of the dasf format.
//!
//! [`crc32c_append`] picks its implementation from the CPU it runs on,
//! once per call and with nothing to configure:
//!
//! * on x86-64 with SSE4.2 (detected at run time), the `crc32`
//!   instruction folds eight bytes per step — one dependent chain,
//!   about five times the table code on the 64 KiB units dasf hashes;
//! * everywhere else, slice-by-8: eight 256-entry tables, built at
//!   compile time (no initialisation to race on), fold eight input
//!   bytes per iteration.
//!
//! The table code is also the reference: the tests call it directly and
//! compare the instruction path against it over every length and
//! alignment, so the fallback is exercised on x86 CI too. CRC32C is
//! chosen over CRC32 (zlib) for its better error-detection properties
//! on storage-sized blocks — and because hardware implements it.

/// Reflected CRC32C (Castagnoli) polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 lookup tables, built at compile time.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC32C of `data` (standard init/final XOR; `crc32c(b"") == 0`).
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Continue a CRC32C over more data: `crc32c_append(crc32c(a), b)`
/// equals `crc32c` of `a` followed by `b`.
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` needs nothing but the `sse4.2` target
        // feature, which was just detected on the running CPU.
        return unsafe { crc32c_sse42(crc, data) };
    }
    crc32c_table(crc, data)
}

/// [`crc32c_append`] on the SSE4.2 `crc32` instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut crc64 = u64::from(!crc);
    for w in &mut words {
        let w = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        crc64 = _mm_crc32_u64(crc64, w);
    }
    // The instruction leaves the upper half of its result zero.
    let mut crc = crc64 as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// [`crc32c_append`] by slice-by-8 table lookups: the path of every
/// platform without the instruction, and the tests' reference.
fn crc32c_table(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ crc;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference implementation.
    fn crc32c_reference(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn known_answers() {
        // RFC 3720 / iSCSI test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn slice_by_8_matches_reference_on_all_lengths() {
        // Every tail length 0..=23 exercises each remainder path.
        let data: Vec<u8> = (0..256u32)
            .map(|i| (i.wrapping_mul(31) ^ 0x5A) as u8)
            .collect();
        for len in 0..=23 {
            assert_eq!(
                crc32c_table(0, &data[..len]),
                crc32c_reference(&data[..len]),
                "len {len}"
            );
        }
        assert_eq!(crc32c_table(0, &data), crc32c_reference(&data));
    }

    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// The dispatching entry point (the `crc32` instruction wherever
    /// this suite runs on SSE4.2 hardware) against the table code.
    #[test]
    fn selected_path_matches_the_tables_on_every_length_and_alignment() {
        let data = noise(8 + 257);
        for align in 0..8 {
            for len in 0..=257 {
                let s = &data[align..align + len];
                assert_eq!(crc32c(s), crc32c_table(0, s), "align {align} len {len}");
            }
        }
        for len in [64 << 10, 1 << 20] {
            let big = noise(len + 3);
            assert_eq!(crc32c(&big[3..]), crc32c_table(0, &big[3..]), "len {len}");
        }
    }

    #[test]
    fn append_composes() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32c_append(crc32c(a), b), crc32c(&data), "split {split}");
        }
        // Every cut of a short message, on the selected path and on the
        // tables: each remainder length on either side of the cut.
        let msg = noise(64);
        let whole = crc32c_reference(&msg);
        for cut in 0..=msg.len() {
            let (a, b) = msg.split_at(cut);
            assert_eq!(crc32c_append(crc32c(a), b), whole, "cut {cut}");
            assert_eq!(crc32c_table(crc32c_table(0, a), b), whole, "cut {cut}");
        }
    }

    #[test]
    fn single_bit_flips_always_change_the_crc() {
        let data: Vec<u8> = (0..512u32).map(|i| (i * 7 % 256) as u8).collect();
        let clean = crc32c(&data);
        let mut flipped = data.clone();
        for byte in (0..data.len()).step_by(13) {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), clean, "byte {byte} bit {bit}");
                flipped[byte] ^= 1 << bit;
            }
        }
    }
}
