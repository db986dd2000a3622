//! End-to-end integrity guarantees of the `DASF0004` format.
//!
//! Four families of tests back the acceptance criteria of the v4
//! design:
//!
//! 1. **Compatibility** — pinned golden v2 and v3 fixtures
//!    (byte-for-byte the output of the `DASF0002` / `DASF0003` writers)
//!    still open and read, and v4 round-trips are bit-exact and
//!    deterministic.
//! 2. **Corruption** — flipping a byte *anywhere* in a v4 file (magic,
//!    superblock, payload, object table, commit record) is detected as
//!    `BadMagic` / `Truncated` / `ChecksumMismatch`; never silently
//!    wrong data. The sweep runs over both an uncompressed and a
//!    codec-compressed corpus: checksums cover the stored bytes, so
//!    compression must not change what corruption looks like.
//! 3. **Crash shapes** — truncating a v4 file at every possible length
//!    (a SIGKILL mid-`finish`) is always detected at open, and an
//!    aborted writer leaves nothing behind. Also swept over a
//!    compressed corpus.
//! 4. **Codec round-trips** — a shuffle-lz file decodes bit-exactly to
//!    the written payload, and a quant file reconstructs every sample
//!    within its error bound.
//! 5. **Hostile tables** — an object table whose CRCs are all valid but
//!    whose unit headers, offsets or extent contradict the dataset's
//!    geometry (a buggy or malicious writer; no checksum can catch it)
//!    is a typed `Corrupt` naming dataset and unit on every read and on
//!    the scrub, before a payload byte is read — never a panic, never
//!    an allocation sized by the table.

use dasf::crc::crc32c;
use dasf::{Codec, DasfError, File, Layout, ObjectTable, UnitHeader, Value, Version, Writer};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dasf-integrity-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn unhex(s: &str) -> Vec<u8> {
    s.as_bytes()
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
        .collect()
}

/// A complete `DASF0002` file produced by the v2 writer before the v3
/// format change: root attrs, one contiguous f32 dataset under a group,
/// and one chunked f64 dataset. Pinned as raw bytes so the v2 *decoder*
/// is what keeps it readable, not the current writer.
const GOLDEN_V2_HEX: &str = "4441534630303032ac00000000000000000040c0000020c0000000c00000c0bf000080bf000000bf000000000000003f0000803f0000c03f00000040000020400000404000006040000080400000000000000000000000000000f03f0000000000003040000000000000394000000000000010400000000000002240000000000000424000000000008048400000000000005040000000000040544000000000000059400000000000405e400105000000110000004e756d626572206f66206f626a65637473020300000000000000190000004e756d626572206f662072617720646174612076616c7565730205000000000000001500000053616d706c696e674672657175656e637928485a2902f401000000000000140000005370617469616c5265736f6c7574696f6e286d290300000000000000401700000054696d655374616d702879796d6d646468686d6d737329010c000000313730373238323234353130020000000b0000004d6561737572656d656e7401000000000100000004000000646174610201020000000300000000000000050000000000000010000000000000000100000000070000006368756e6b6564020202000000030000000000000004000000000000004c00000000000000020200000002000000000000000200000000000000040000004c000000000000006c000000000000008c000000000000009c0000000000000000000000";

/// A complete `DASF0003` file (checksums, no codec stage) captured from
/// the v3 writer before the v4 format change — same logical content as
/// the v2 fixture. Proves compressed-era readers keep decoding the
/// checksummed-but-uncompressed generation byte-for-byte.
const GOLDEN_V3_HEX: &str = "4441534630303033ac00000000000000000040c0000020c0000000c00000c0bf000080bf000000bf000000000000003f0000803f0000c03f00000040000020400000404000006040000080400000000000000000000000000000f03f0000000000003040000000000000394000000000000010400000000000002240000000000000424000000000008048400000000000005040000000000040544000000000000059400000000000405e4001030000001500000053616d706c696e674672657175656e637928485a2902f401000000000000140000005370617469616c5265736f6c7574696f6e286d290300000000000000401700000054696d655374616d702879796d6d646468686d6d737329010c000000313730373238323234353130020000000b0000004d6561737572656d656e7401000000000100000004000000646174610201020000000300000000000000050000000000000010000000000000000101000000dcb1481100000000070000006368756e6b6564020202000000030000000000000004000000000000004c00000000000000020200000002000000000000000200000000000000040000004c000000000000006c000000000000008c000000000000009c00000000000000040000006fa1be7f443d7d68d50b4e2b2868931c00000000ac000000000000003d01000000000000b82640f9fc84bf2b4441534633454e44";

/// The logical content of the golden fixtures (and of the v4 files the
/// tests below write): what the v2 writer was fed when it was pinned.
fn expected_f32() -> Vec<f32> {
    (0..15).map(|i| i as f32 * 0.5 - 3.0).collect()
}

fn expected_f64() -> Vec<f64> {
    (0..12).map(|i| (i * i) as f64).collect()
}

fn write_sample_versioned(name: &str, version: Version) -> PathBuf {
    let p = tmp(name);
    let mut w = Writer::create_versioned(&p, version).unwrap();
    w.set_attr("/", "SamplingFrequency(HZ)", Value::Int(500))
        .unwrap();
    w.set_attr("/", "SpatialResolution(m)", Value::Float(2.0))
        .unwrap();
    w.set_attr(
        "/",
        "TimeStamp(yymmddhhmmss)",
        Value::Str("170728224510".into()),
    )
    .unwrap();
    w.create_group("/Measurement").unwrap();
    w.write_dataset_f32("/Measurement/data", &[3, 5], &expected_f32())
        .unwrap();
    w.write_dataset_chunked("/chunked", &[3, 4], &[2, 2], &expected_f64())
        .unwrap();
    w.finish().unwrap();
    p
}

fn write_v4_sample(name: &str) -> PathBuf {
    write_sample_versioned(name, Version::V4)
}

/// Content of the compressed corpus: runs of repeated samples, the
/// shape byte-shuffle + LZ is built for. Big enough that the contiguous
/// dataset spans two verify units (> 64 KiB of raw payload).
fn compressible_f32() -> Vec<f32> {
    (0..20_480).map(|i| (i >> 5) as f32 * 0.25).collect()
}

fn compressible_f64() -> Vec<f64> {
    (0..16 * 16).map(|i| (i % 16) as f64 * 0.5).collect()
}

/// A v4 file written through a non-raw codec, with the same dataset
/// paths/types as the golden samples so `deep_read` applies unchanged.
fn write_v4_compressed(name: &str, codec: Codec) -> PathBuf {
    let p = tmp(name);
    let mut w = Writer::create(&p).unwrap();
    w.set_codec(codec).unwrap();
    w.create_group("/Measurement").unwrap();
    w.write_dataset_f32("/Measurement/data", &[2, 10_240], &compressible_f32())
        .unwrap();
    w.write_dataset_chunked("/chunked", &[16, 16], &[8, 8], &compressible_f64())
        .unwrap();
    w.finish().unwrap();
    p
}

// ---------------------------------------------------------------------
// 1. Compatibility
// ---------------------------------------------------------------------

#[test]
fn golden_v2_fixture_still_opens_and_reads() {
    let p = tmp("golden_v2.dasf");
    std::fs::write(&p, unhex(GOLDEN_V2_HEX)).unwrap();
    let f = File::open(&p).unwrap();
    assert_eq!(f.version(), Version::V2);
    assert_eq!(
        f.attr("/", "SamplingFrequency(HZ)")
            .and_then(|v| v.as_int()),
        Some(500)
    );
    assert_eq!(
        f.attr("/", "TimeStamp(yymmddhhmmss)")
            .and_then(|v| v.as_str()),
        Some("170728224510")
    );
    assert_eq!(f.read_f32("/Measurement/data").unwrap(), expected_f32());
    assert_eq!(f.read_f64("/chunked").unwrap(), expected_f64());
    // Hyperslabs work unverified on v2 too.
    assert_eq!(
        f.read_hyperslab_f32("/Measurement/data", &[(1, 1), (2, 2)])
            .unwrap(),
        vec![expected_f32()[7], expected_f32()[8]]
    );
    // A v2 file has no checksums: the scrub reports it unverified, not
    // corrupt.
    let v = f.verify_all().unwrap();
    assert!(v.is_clean());
    assert_eq!(v.datasets, 2);
    assert_eq!(v.unverified_datasets, 2);
    assert_eq!(v.chunks_verified, 0);
}

#[test]
fn golden_v3_fixture_still_opens_verifies_and_reads() {
    let p = tmp("golden_v3.dasf");
    std::fs::write(&p, unhex(GOLDEN_V3_HEX)).unwrap();
    let f = File::open(&p).unwrap();
    assert_eq!(f.version(), Version::V3);
    assert_eq!(f.read_f32("/Measurement/data").unwrap(), expected_f32());
    assert_eq!(f.read_f64("/chunked").unwrap(), expected_f64());
    assert_eq!(
        f.attr("/", "SpatialResolution(m)")
            .and_then(|v| v.as_float()),
        Some(2.0)
    );
    // Its v3 checksums still verify clean through the v4 reader.
    let v = f.verify_all().unwrap();
    assert!(v.is_clean());
    assert_eq!(v.chunks_verified, 5);
    assert_eq!(v.unverified_datasets, 0);
    // No dataset carries codec headers.
    for path in f.dataset_paths() {
        assert!(!f.dataset(&path).unwrap().is_compressed());
    }
}

#[test]
fn v3_writer_output_matches_the_pinned_fixture() {
    // The compat writer (`create_versioned(V3)`) must keep producing
    // exactly the bytes the real v3 writer produced when the fixture
    // was pinned — byte-identical back-compat writes, not just reads.
    let p = write_sample_versioned("golden_v3_rewrite.dasf", Version::V3);
    assert_eq!(std::fs::read(&p).unwrap(), unhex(GOLDEN_V3_HEX));
}

#[test]
fn v4_round_trip_is_bit_exact_and_deterministic() {
    let p1 = write_v4_sample("rt1.dasf");
    let p2 = write_v4_sample("rt2.dasf");
    let b1 = std::fs::read(&p1).unwrap();
    let b2 = std::fs::read(&p2).unwrap();
    assert_eq!(b1, b2, "same logical content must serialize identically");
    assert_eq!(&b1[..8], b"DASF0004");
    assert_eq!(&b1[b1.len() - 8..], b"DASF4END");

    let f = File::open(&p1).unwrap();
    assert_eq!(f.version(), Version::V4);
    assert_eq!(f.read_f32("/Measurement/data").unwrap(), expected_f32());
    assert_eq!(f.read_f64("/chunked").unwrap(), expected_f64());
    assert_eq!(
        f.attr("/", "SpatialResolution(m)")
            .and_then(|v| v.as_float()),
        Some(2.0)
    );
    let v = f.verify_all().unwrap();
    assert!(v.is_clean());
    assert_eq!(v.datasets, 2);
    assert_eq!(v.unverified_datasets, 0);
    // 1 contiguous unit + 4 storage chunks.
    assert_eq!(v.chunks_verified, 5);
}

#[test]
fn default_codec_payload_matches_v3_layout() {
    // A raw-codec v4 file keeps its *payload region* byte-identical to
    // its v3 twin — same offsets, same stored bytes, same checksums —
    // which is what keeps fault-injection behaviour and pipeline
    // digests stable across the format bump. Only the magic and the
    // object table (a zero unit-header count per dataset, 4 bytes each)
    // differ.
    let p3 = write_sample_versioned("twin3.dasf", Version::V3);
    let p4 = write_v4_sample("twin4.dasf");
    let b3 = std::fs::read(&p3).unwrap();
    let b4 = std::fs::read(&p4).unwrap();
    let table_off = u64::from_le_bytes(b3[8..16].try_into().unwrap()) as usize;
    assert_eq!(b3[8..16], b4[8..16], "payload region must not move");
    assert_eq!(b3[16..table_off], b4[16..table_off]);
    // Two datasets → two empty unit-header counts.
    assert_eq!(b4.len(), b3.len() + 8);
}

/// xorshift64: the source of the pinned files below. Integer steps and
/// exact conversions only, so the payload is the same on every platform.
struct Seeded(u64);

impl Seeded {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Roughly Gaussian in (−1, 1): the mean of four uniform draws.
    fn noise(&mut self) -> f64 {
        let sum: u64 = (0..4).map(|_| self.next() >> 40).sum();
        sum as f64 / (1u64 << 25) as f64 - 1.0
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next() >> 32) as u8).collect()
    }
}

/// DAS-shaped `channels × samples`: a per-channel offset, a slow ramp
/// and noise of amplitude 0.25 — the sign/exponent plane compresses,
/// the mantissa planes do not.
fn das_like(seed: u64, channels: usize, samples: usize) -> Vec<f32> {
    let mut rng = Seeded(seed);
    (0..channels * samples)
        .map(|i| {
            let (ch, t) = (i / samples, i % samples);
            (ch as f64 * 0.03125 + t as f64 / 65_536.0 + rng.noise() * 0.25) as f32
        })
        .collect()
}

const PINNED_SEED: u64 = 0x0DA5_5A01;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every element type, both layouts, units the codec shrinks and units
/// it stores raw, a partial last unit, and one storage chunk longer
/// than the LZ window.
fn write_pinned_file(name: &str, codec: Codec) -> PathBuf {
    let p = tmp(name);
    let mut rng = Seeded(0x00DA_55A0);
    let mut w = Writer::create(&p).unwrap();
    w.set_attr("/", "SamplingFrequency(HZ)", Value::Int(500))
        .unwrap();
    w.set_codec(codec).unwrap();
    w.create_group("/Measurement").unwrap();
    w.write_dataset_f32(
        "/Measurement/data",
        &[6, 8_000],
        &das_like(PINNED_SEED, 6, 8_000),
    )
    .unwrap();
    let smooth: Vec<f64> = (0..5_000)
        .map(|i| (i / 7) as f64 * 0.5 + rng.noise() * 0.125)
        .collect();
    w.write_dataset_f64("/smooth", &[5_000], &smooth).unwrap();
    // A NaN in the second unit only: under `quant` that unit alone
    // takes the lossless path.
    let mut holed = das_like(rng.next(), 1, 20_000);
    holed[17_000] = f32::NAN;
    w.write_dataset_f32("/holed", &[20_000], &holed).unwrap();
    let counts: Vec<i16> = (0..40_000)
        .map(|i| (i / 37) as i16 - 400 + (rng.next() % 3) as i16)
        .collect();
    w.write_dataset("/counts", &[40_000], &counts).unwrap();
    // One unit of noise (stored raw), then a compressible tail.
    let mut mask = rng.bytes(65_536);
    mask.extend((0..4_464).map(|i| (i / 100) as u8));
    w.write_dataset("/mask", &[70_000], &mask).unwrap();
    let ticks: Vec<i64> = (0..9_000).map(|i| 1_501_281_910_000 + i * 20).collect();
    w.write_dataset("/ticks", &[9_000], &ticks).unwrap();
    let ids: Vec<i32> = (0..300).map(|i| i * i - 7).collect();
    w.write_dataset("/ids", &[300], &ids).unwrap();
    let tiles: Vec<f64> = (0..40 * 50).map(|i| (i / 9) as f64 * 0.25).collect();
    w.write_dataset_chunked("/tiles", &[40, 50], &[16, 16], &tiles)
        .unwrap();
    w.write_dataset_chunked(
        "/Measurement/strips",
        &[6, 3_000],
        &[2, 1_000],
        &das_like(rng.next(), 6, 3_000),
    )
    .unwrap();
    // 120 000-byte chunks: 70 000 bytes of noise, their first 30 000
    // again (70 000 back — beyond what a match can address), zeros.
    let mut far = Vec::new();
    for _ in 0..2 {
        let head = rng.bytes(70_000);
        far.extend_from_slice(&head);
        far.extend_from_slice(&head[..30_000]);
        far.extend_from_slice(&[0u8; 20_000]);
    }
    w.write_dataset_chunked("/far", &[2, 120_000], &[1, 120_000], &far)
        .unwrap();
    w.finish().unwrap();
    p
}

#[test]
fn stored_bytes_of_compressed_files_are_pinned_across_commits() {
    // Recorded with the encoder of PR 10 (per-unit `shuffle` +
    // `lz_compress` through fresh vectors), before the single encoded
    // walk replaced it: a writer change that alters one stored byte of
    // either file fails here, whatever in-tree reference it still
    // agrees with.
    for (name, codec, len, digest, census) in [
        (
            "pinned_lz.dasf",
            Codec::ShuffleLz,
            644_765usize,
            2_751_543_425_905_571_990u64,
            [1usize, 35, 0],
        ),
        (
            "pinned_quant.dasf",
            Codec::Quant { bound: 1e-3 },
            469_747,
            16_400_331_378_730_982_232,
            [1, 9, 26],
        ),
    ] {
        let bytes = std::fs::read(write_pinned_file(name, codec)).unwrap();
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            (len, digest),
            "{name}: stored bytes changed"
        );
        // …and the pinned bytes are a file that reads, whose units took
        // every path: [stored raw, lossless, quantised].
        let f = File::open(tmp(name)).unwrap();
        assert!(f.verify_all().unwrap().is_clean());
        let mut seen = [0usize; 3];
        for path in f.dataset_paths() {
            for unit in &f.dataset(&path).unwrap().stored_units {
                seen[match unit.codec {
                    Codec::Raw => 0,
                    Codec::ShuffleLz => 1,
                    Codec::Quant { .. } => 2,
                }] += 1;
            }
        }
        assert_eq!(seen, census, "{name}");
        let back = f.read_f32("/Measurement/data").unwrap();
        let wrote = das_like(PINNED_SEED, 6, 8_000);
        match codec {
            Codec::Quant { bound } => assert!(wrote
                .iter()
                .zip(&back)
                .all(|(a, b)| (*a as f64 - *b as f64).abs() <= bound)),
            _ => assert_eq!(back, wrote),
        }
    }
}

// ---------------------------------------------------------------------
// 2. Corruption: every byte of every region
// ---------------------------------------------------------------------

/// Fully read a file: open, scrub, and decode every dataset. Any
/// integrity failure anywhere surfaces as `Err`.
fn deep_read(p: &std::path::Path) -> dasf::Result<()> {
    let f = File::open(p)?;
    let v = f.verify_all()?;
    if let Some(fault) = v.mismatches.first() {
        return Err(DasfError::ChecksumMismatch {
            path: p.display().to_string(),
            dataset: fault.dataset.clone(),
            chunk: fault.chunk,
        });
    }
    f.read_f32("/Measurement/data")?;
    f.read_f64("/chunked")?;
    Ok(())
}

/// Flip every byte of `clean`, writing each damaged copy to `target`,
/// and assert the damage is detected and classified by region.
fn sweep_flips(clean: &[u8], table_offset: u64, target: &std::path::Path) {
    let footer_start = clean.len() as u64 - 32;
    for i in 0..clean.len() {
        let mut bad = clean.to_vec();
        bad[i] ^= 0xA5;
        std::fs::write(target, &bad).unwrap();
        let err = deep_read(target).expect_err(&format!("flip at byte {i} went undetected"));
        let i64_ = i as u64;
        match i64_ {
            0..=7 => assert!(
                matches!(err, DasfError::BadMagic),
                "magic flip at {i}: {err}"
            ),
            8..=15 => assert!(
                matches!(err, DasfError::ChecksumMismatch { ref dataset, .. } if dataset == "(superblock)"),
                "superblock flip at {i}: {err}"
            ),
            _ if i64_ < table_offset => assert!(
                matches!(err, DasfError::ChecksumMismatch { ref dataset, .. } if dataset.starts_with('/')),
                "payload flip at {i}: {err}"
            ),
            _ if i64_ < footer_start => assert!(
                matches!(err, DasfError::ChecksumMismatch { ref dataset, .. } if dataset == "(object table)"),
                "table flip at {i}: {err}"
            ),
            _ => assert!(
                // Record prefix flips fail its CRC; commit-magic flips
                // look like a torn write. Both are detected.
                matches!(
                    err,
                    DasfError::Truncated | DasfError::ChecksumMismatch { .. }
                ),
                "footer flip at {i}: {err}"
            ),
        }
    }
}

#[test]
fn flipping_any_byte_is_detected() {
    let p = write_v4_sample("flip.dasf");
    let clean = std::fs::read(&p).unwrap();
    let f = File::open(&p).unwrap();
    let table_offset = 16 + f.data_region_bytes();
    drop(f);
    sweep_flips(&clean, table_offset, &tmp("flip_target.dasf"));
}

#[test]
fn flipping_any_byte_of_a_compressed_file_is_detected() {
    // Same sweep over a shuffle-lz corpus: the CRCs cover the stored
    // (compressed) bytes, so every flipped stored byte must fail its
    // checksum before any decode gets a chance to misbehave.
    let p = write_v4_compressed("flip_lz.dasf", Codec::ShuffleLz);
    let clean = std::fs::read(&p).unwrap();
    let f = File::open(&p).unwrap();
    let table_offset = 16 + f.data_region_bytes();
    // Sanity: the corpus really is compressed, else the sweep proves
    // nothing new.
    let meta = f.dataset("/Measurement/data").unwrap();
    assert!(meta.is_compressed());
    assert!(meta.stored_byte_len() < meta.byte_len() / 4);
    drop(f);
    sweep_flips(&clean, table_offset, &tmp("flip_lz_target.dasf"));
}

#[test]
fn payload_flip_is_attributed_to_the_right_chunk() {
    let p = write_v4_sample("attr_chunk.dasf");
    let mut bytes = std::fs::read(&p).unwrap();
    // Byte 20 sits in the first unit of /Measurement/data (payload
    // starts at 16).
    bytes[20] ^= 0xFF;
    let target = tmp("attr_chunk_bad.dasf");
    std::fs::write(&target, &bytes).unwrap();
    let f = File::open(&target).unwrap();
    match f.read_f32("/Measurement/data") {
        Err(DasfError::ChecksumMismatch { dataset, chunk, .. }) => {
            assert_eq!(dataset, "/Measurement/data");
            assert_eq!(chunk, 0);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    // The intact dataset still reads fine.
    assert_eq!(f.read_f64("/chunked").unwrap(), expected_f64());
    let v = f.verify_all().unwrap();
    assert_eq!(v.mismatches.len(), 1);
    assert_eq!(v.mismatches[0].dataset, "/Measurement/data");
}

// ---------------------------------------------------------------------
// 3. Crash shapes
// ---------------------------------------------------------------------

fn sweep_truncations(clean: &[u8], target: &std::path::Path) {
    for len in 0..clean.len() {
        std::fs::write(target, &clean[..len]).unwrap();
        match File::open(target) {
            Err(DasfError::Truncated) | Err(DasfError::ChecksumMismatch { .. }) => {}
            Err(other) => panic!("truncation to {len} gave unexpected error {other}"),
            Ok(_) => panic!("truncation to {len} bytes opened successfully"),
        }
    }
    // The untouched length still opens.
    std::fs::write(target, clean).unwrap();
    assert!(File::open(target).is_ok());
}

#[test]
fn truncation_at_every_length_is_detected() {
    let p = write_v4_sample("trunc.dasf");
    let clean = std::fs::read(&p).unwrap();
    sweep_truncations(&clean, &tmp("trunc_target.dasf"));
}

#[test]
fn truncation_of_a_compressed_file_at_every_length_is_detected() {
    let p = write_v4_compressed("trunc_lz.dasf", Codec::ShuffleLz);
    let clean = std::fs::read(&p).unwrap();
    sweep_truncations(&clean, &tmp("trunc_lz_target.dasf"));
}

#[test]
fn write_fault_mid_file_leaves_nothing_behind() {
    // Satellite regression: a failed write used to leave a truncated
    // half-written file at the final path. Now the temp file is removed
    // on drop and the final path never existed.
    use faultline::{site, FaultPlan};
    use std::sync::Arc;
    let p = tmp("abort.dasf");
    std::fs::remove_file(&p).ok();
    let tmp_file = tmp("abort.dasf.tmp");
    let plan = Arc::new(FaultPlan::new(7).with(site::DASF_WRITE_ERR, 1.0));
    faultline::with_plan(plan, || {
        let mut w = Writer::create(&p).unwrap();
        w.write_dataset_f32("/ok0", &[2], &[1.0, 2.0]).unwrap_err();
        drop(w);
    });
    assert!(!p.exists(), "no torn file at the final path");
    assert!(!tmp_file.exists(), "temp file cleaned up on drop");
}

#[test]
fn failed_fsync_publishes_nothing() {
    // `finish` used to ignore the data file's fsync result and rename
    // anyway: a flush that failed still published the file as durable.
    use faultline::{site, FaultPlan};
    use std::sync::Arc;
    let p = tmp("unsynced.dasf");
    let staging = tmp("unsynced.dasf.tmp");
    std::fs::remove_file(&p).ok();
    let write = |value: f32| {
        let mut w = Writer::create(&p).unwrap();
        w.write_dataset_f32("/d", &[2], &[value, value]).unwrap();
        assert!(staging.exists());
        w.finish()
    };
    let plan = Arc::new(FaultPlan::new(7).with(site::DASF_WRITE_SYNC_ERR, 1.0));
    // Nothing under the name yet: nothing appears.
    faultline::with_plan(Arc::clone(&plan), || {
        assert!(matches!(write(1.0), Err(DasfError::Io(_))));
    });
    assert!(!p.exists(), "a file whose flush failed was published");
    assert!(!staging.exists(), "temp file left behind");
    // A complete file under the name: it stays, and still reads.
    write(2.0).unwrap();
    faultline::with_plan(plan, || {
        assert!(matches!(write(3.0), Err(DasfError::Io(_))));
    });
    assert!(!staging.exists(), "temp file left behind");
    assert_eq!(File::open(&p).unwrap().read_f32("/d").unwrap(), [2.0, 2.0]);
}

#[test]
fn verified_cache_is_per_handle() {
    // Intentional trade-off: a unit that verified once is not re-hashed
    // by the same handle, so rot appearing *after* that first read goes
    // unseen until a fresh open.
    let p = write_v4_sample("cache.dasf");
    let f = File::open(&p).unwrap();
    assert_eq!(f.read_f32("/Measurement/data").unwrap(), expected_f32());
    let mut bytes = std::fs::read(&p).unwrap();
    bytes[20] ^= 0xFF;
    std::fs::write(&p, &bytes).unwrap();
    // Same handle: cached verification, stale-clean read.
    assert!(f.read_f32("/Measurement/data").is_ok());
    // Fresh open: the flip is caught.
    let f2 = File::open(&p).unwrap();
    assert!(matches!(
        f2.read_f32("/Measurement/data"),
        Err(DasfError::ChecksumMismatch { .. })
    ));
}

// ---------------------------------------------------------------------
// 4. Codec round-trips through the full writer/reader stack
// ---------------------------------------------------------------------

#[test]
fn shuffle_lz_file_round_trips_bit_exactly() {
    let p = write_v4_compressed("rt_lz.dasf", Codec::ShuffleLz);
    let f = File::open(&p).unwrap();
    let meta = f.dataset("/Measurement/data").unwrap();
    assert!(meta.is_compressed());
    assert_eq!(meta.codec(), Codec::ShuffleLz);
    assert!(meta.stored_byte_len() < meta.byte_len());
    // Bit-exact whole reads on both layouts.
    assert_eq!(f.read_f32("/Measurement/data").unwrap(), compressible_f32());
    assert_eq!(f.read_f64("/chunked").unwrap(), compressible_f64());
    // Hyperslabs decode through the unit window and must agree with
    // slicing the whole array — including a window that straddles the
    // 64 KiB unit boundary (row 1 starts at byte 40 960).
    let whole = compressible_f32();
    let slab = f
        .read_hyperslab_f32("/Measurement/data", &[(1, 1), (5_000, 2_000)])
        .unwrap();
    assert_eq!(slab, whole[10_240 + 5_000..10_240 + 7_000]);
    let chunk_slab = f.read_hyperslab_f64("/chunked", &[(6, 4), (6, 4)]).unwrap();
    let c64 = compressible_f64();
    let mut expect = Vec::new();
    for r in 6..10 {
        for c in 6..10 {
            expect.push(c64[r * 16 + c]);
        }
    }
    assert_eq!(chunk_slab, expect);
    // The scrub hashes stored bytes only.
    let v = f.verify_all().unwrap();
    assert!(v.is_clean());
    assert!(v.bytes_verified < meta.byte_len());
}

#[test]
fn quant_file_respects_its_error_bound_end_to_end() {
    let bound = 1e-3f64;
    let p = tmp("rt_quant.dasf");
    let data: Vec<f32> = (0..30_000)
        .map(|i| (i as f32 * 0.011).sin() * 4.0)
        .collect();
    let mut w = Writer::create(&p).unwrap();
    w.set_codec(Codec::Quant { bound }).unwrap();
    w.create_group("/Measurement").unwrap();
    w.write_dataset_f32("/Measurement/data", &[30_000], &data)
        .unwrap();
    w.finish().unwrap();
    let f = File::open(&p).unwrap();
    let meta = f.dataset("/Measurement/data").unwrap();
    assert!(meta.is_compressed());
    assert!(meta.stored_byte_len() < meta.byte_len());
    let back = f.read_f32("/Measurement/data").unwrap();
    assert_eq!(back.len(), data.len());
    for (orig, got) in data.iter().zip(&back) {
        let err = (*orig as f64 - *got as f64).abs();
        assert!(err <= bound, "|{orig} - {got}| = {err} > {bound}");
    }
    assert!(f.verify_all().unwrap().is_clean());
}

// ---------------------------------------------------------------------
// 5. Hostile tables: valid CRCs, impossible geometry
// ---------------------------------------------------------------------

/// Copy the v4 file at `src` to `dst` with its object table rewritten by
/// `edit` (which also sees the bytes before the table, i.e. superblock
/// and payload) and the table and commit-record CRCs recomputed: the
/// result opens clean whatever the table now claims.
fn retable(src: &Path, dst: &Path, edit: impl FnOnce(&mut ObjectTable, &[u8])) {
    let mut bytes = std::fs::read(src).unwrap();
    let footer = bytes.len() - 32;
    let t_off = u64::from_le_bytes(bytes[footer..footer + 8].try_into().unwrap()) as usize;
    let mut table = ObjectTable::decode(&bytes[t_off..footer], Version::V4).unwrap();
    edit(&mut table, &bytes[..t_off]);
    let table = table.encode();
    bytes.truncate(t_off);
    bytes.extend_from_slice(&table);
    // Commit record: offset · length · CRC(table) · CRC(magic ‖ offset ‖
    // the 20 bytes so far) · commit magic.
    let mut record = (t_off as u64).to_le_bytes().to_vec();
    record.extend_from_slice(&(table.len() as u64).to_le_bytes());
    record.extend_from_slice(&crc32c(&table).to_le_bytes());
    let covered = [&b"DASF0004"[..], &record[..8], &record[..20]].concat();
    record.extend_from_slice(&crc32c(&covered).to_le_bytes());
    record.extend_from_slice(b"DASF4END");
    bytes.extend_from_slice(&record);
    std::fs::write(dst, bytes).unwrap();
}

/// 2 × 20 000 incompressible `f32` under `shuffle-lz`: three units, all
/// fallen back to raw storage (65 536 + 65 536 + 28 928 bytes).
fn write_incompressible(name: &str) -> PathBuf {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let noise: Vec<f32> = (0..40_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f32::from_bits((x >> 32) as u32 & 0x7F7F_FFFF) // finite
        })
        .collect();
    let p = tmp(name);
    let mut w = Writer::create(&p).unwrap();
    w.set_codec(Codec::ShuffleLz).unwrap();
    w.write_dataset_f32("/d", &[2, 20_000], &noise).unwrap();
    w.finish().unwrap();
    let f = File::open(&p).unwrap();
    let units = &f.dataset("/d").unwrap().stored_units;
    assert_eq!(units.len(), 3);
    assert!(units.iter().all(|u| u.codec == Codec::Raw));
    p
}

/// Every way into the payload of `/d` fails with `Corrupt` naming the
/// dataset (and `needle`), and so does the scrub — so `open_verified`
/// never admits the file.
fn assert_table_rejected(p: &Path, needle: &str) {
    let f = File::open(p).expect("the CRCs are valid: the file opens");
    let check = |what: &str, err: DasfError| match err {
        DasfError::Corrupt(msg) => assert!(
            msg.contains("dataset /d") && msg.contains(needle),
            "{what}: {msg:?} should name the dataset and {needle:?}"
        ),
        other => panic!("{what}: expected Corrupt, got {other}"),
    };
    check("read_f32", f.read_f32("/d").unwrap_err());
    check(
        "read_hyperslab_f32",
        f.read_hyperslab_f32("/d", &[(1, 1), (19_000, 1_000)])
            .unwrap_err(),
    );
    check("verify_all", f.verify_all().unwrap_err());
    check("open_verified", File::open_verified(p).err().unwrap());
}

#[test]
fn unit_header_that_disagrees_with_the_geometry_is_a_typed_error() {
    // Reproduced on the parent of this test: the file opened, scrubbed
    // clean, and then `read_f32` panicked in the element decoder (range
    // end 4 out of range for slice of length 0) and the hyperslab in
    // the window copy (range start 24928 out of range for slice of
    // length 100).
    let clean = write_incompressible("hostile_src.dasf");
    let p = tmp("hostile_raw_len.dasf");
    retable(&clean, &p, |table, payload| {
        let d = table.dataset_mut("/d").unwrap();
        let at = d.data_offset as usize + 2 * 65_536;
        d.stored_units[2] = UnitHeader {
            codec: Codec::Raw,
            raw_len: 100,
            stored_len: 100,
        };
        d.checksums[2] = crc32c(&payload[at..at + 100]);
    });
    assert_table_rejected(&p, "unit 2");
}

#[test]
fn every_hostile_table_shape_is_rejected_before_the_payload_is_touched() {
    let clean = write_incompressible("hostile_src2.dasf");
    type Edit = fn(&mut dasf::DatasetMeta);
    let cases: [(&str, &str, Edit); 7] = [
        ("raw_stored_len", "unit 1", |d| {
            // stored raw, but in fewer bytes than it decodes to
            d.stored_units[1].stored_len = 100;
        }),
        ("huge_stored_len", "unit 0", |d| {
            // must not size a 4 GiB staging buffer
            d.stored_units[0] = UnitHeader {
                codec: Codec::ShuffleLz,
                raw_len: 65_536,
                stored_len: u32::MAX,
            };
        }),
        ("offset_past_eof", "unit 0", |d| {
            d.data_offset = u64::MAX - 7
        }),
        ("offset_in_superblock", "unit 0", |d| d.data_offset = 8),
        ("quant_of_ints", "unit 0", |d| {
            d.dtype = dasf::Dtype::I32; // same width, same geometry
            d.stored_units[0].codec = Codec::Quant { bound: 0.5 };
        }),
        ("extent_overflow", "overflows", |d| {
            d.dims = vec![u64::MAX, 3]
        }),
        ("too_few_headers", "unit headers", |d| {
            d.stored_units.truncate(2);
        }),
    ];
    for (name, needle, edit) in cases {
        let p = tmp(&format!("hostile_{name}.dasf"));
        retable(&clean, &p, |table, _| {
            edit(table.dataset_mut("/d").unwrap())
        });
        if name == "quant_of_ints" {
            // the dtype check of the typed read comes first
            let f = File::open(&p).unwrap();
            assert!(
                matches!(f.read::<i32>("/d"), Err(DasfError::Corrupt(m)) if m.contains(needle))
            );
            assert!(matches!(f.verify_all(), Err(DasfError::Corrupt(_))));
        } else {
            assert_table_rejected(&p, needle);
        }
    }
}

#[test]
fn hostile_tables_of_uncompressed_and_chunked_datasets_are_rejected() {
    let clean = write_v4_compressed("hostile_src3.dasf", Codec::ShuffleLz);
    let corrupt = |p: &Path, dataset: &str, needle: &str| {
        let f = File::open(p).unwrap();
        let sel: Vec<(u64, u64)> = f
            .dataset(dataset)
            .unwrap()
            .dims
            .iter()
            .map(|_| (0, 1))
            .collect();
        for err in [
            f.read_hyperslab_f64(dataset, &sel).err(),
            f.read_hyperslab_f32(dataset, &sel).err(),
            f.verify_all().err(),
        ]
        .into_iter()
        .flatten()
        {
            match err {
                DasfError::Corrupt(m) => assert!(m.contains(needle), "{m:?} lacks {needle:?}"),
                DasfError::TypeMismatch { .. } => {} // the other dataset's type
                other => panic!("expected Corrupt, got {other}"),
            }
        }
        assert!(matches!(f.verify_all(), Err(DasfError::Corrupt(_))));
    };
    // a compressed chunk whose header decodes to more than the chunk holds
    let p = tmp("hostile_chunk_raw_len.dasf");
    retable(&clean, &p, |t, _| {
        t.dataset_mut("/chunked").unwrap().stored_units[3].raw_len += 8;
    });
    corrupt(&p, "/chunked", "unit 3");
    // a chunk offset outside the data region
    let p = tmp("hostile_chunk_offset.dasf");
    retable(&clean, &p, |t, _| {
        if let Layout::Chunked { chunk_offsets, .. } =
            &mut t.dataset_mut("/chunked").unwrap().layout
        {
            chunk_offsets[1] = 1 << 40;
        }
    });
    corrupt(&p, "/chunked", "unit 1");
    // chunk dims that do not describe the chunk table
    let p = tmp("hostile_chunk_dims.dasf");
    retable(&clean, &p, |t, _| {
        if let Layout::Chunked { chunk_dims, .. } = &mut t.dataset_mut("/chunked").unwrap().layout {
            chunk_dims[0] = 0;
        }
    });
    corrupt(&p, "/chunked", "chunk dims");
    // an uncompressed dataset that claims more payload than the file has:
    // must not size the output or the staging buffer
    let raw = write_v4_sample("hostile_src4.dasf");
    let p = tmp("hostile_extent.dasf");
    retable(&raw, &p, |t, _| {
        let d = t.dataset_mut("/Measurement/data").unwrap();
        d.dims = vec![1 << 20, 1 << 14];
        d.checksums = vec![0; (1usize << 36) / 65_536];
    });
    corrupt(&p, "/Measurement/data", "data region");
    // …while the intact dataset next to a hostile one still reads
    let p = tmp("hostile_neighbour.dasf");
    retable(&clean, &p, |t, _| {
        t.dataset_mut("/chunked").unwrap().stored_units[0].raw_len = 1;
    });
    let f = File::open(&p).unwrap();
    assert_eq!(f.read_f32("/Measurement/data").unwrap(), compressible_f32());
    assert!(matches!(f.read_f64("/chunked"), Err(DasfError::Corrupt(_))));
}
