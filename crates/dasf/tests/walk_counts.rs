//! "Decode what you need", as counts: a hyperslab read moves the verify
//! and codec counters by exactly the units its rows touch — not by the
//! bounding span of the selection — and a handle never hashes a unit
//! twice.
//!
//! The counters live in the process-wide `obs` registry, so this file
//! holds a single test: nothing else in its process reads a dasf file.

use dasf::{Codec, File, Writer};

fn counter(name: &str) -> u64 {
    obs::global().counter(name).get()
}

/// `(dasf.verify.chunks, dasf.codec.bytes_raw)` moved by `f`.
fn moved(f: impl FnOnce()) -> (u64, u64) {
    let before = (
        counter(dasf::metrics::names::VERIFY_CHUNKS),
        counter(dasf::metrics::names::CODEC_BYTES_RAW),
    );
    f();
    (
        counter(dasf::metrics::names::VERIFY_CHUNKS) - before.0,
        counter(dasf::metrics::names::CODEC_BYTES_RAW) - before.1,
    )
}

#[test]
fn a_read_verifies_and_decodes_exactly_the_units_its_rows_touch() {
    // 16 ch x 30 000 samples of f32: rows of 120 000 bytes, 29 whole
    // 64 KiB units and one of 19 456 bytes.
    let (channels, samples) = (16u64, 30_000u64);
    let data: Vec<f32> = (0..channels * samples)
        .map(|i| (i / 24) as f32 * 0.5)
        .collect();
    let dir = std::env::temp_dir().join("dasf-walk-counts");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("minute.dasf");
    let mut w = Writer::create(&path).unwrap();
    w.set_codec(Codec::ShuffleLz).unwrap();
    w.write_dataset_f32("/d", &[channels, samples], &data)
        .unwrap();
    w.finish().unwrap();
    let bytes = channels * samples * 4;
    let units = bytes.div_ceil(65_536);
    assert_eq!(units, 30);

    // Rows 4..12, samples 10 000..15 000: 20 000 bytes per row. Four of
    // the eight rows straddle a unit boundary, so the rows touch 12
    // units, all of them whole — while first..last of the selection's
    // bounding range is units 7..=21, fifteen of them.
    let selection = [(4, 8), (10_000, 5_000)];
    let mut out: Vec<f32> = Vec::new();
    let f = File::open(&path).unwrap();
    assert_eq!(
        moved(|| {
            f.read_hyperslab_into("/d", &selection, &mut out).unwrap();
        }),
        (12, 12 * 65_536)
    );
    for (r, row) in out.chunks(5_000).enumerate() {
        let at = (4 + r) * samples as usize + 10_000;
        assert_eq!(row, &data[at..at + 5_000]);
    }
    // Through the same handle those units are verified: decoded again,
    // hashed never again.
    assert_eq!(
        moved(|| {
            f.read_hyperslab_into("/d", &selection, &mut out).unwrap();
        }),
        (0, 12 * 65_536)
    );
    // A whole read through it hashes the other 18 and decodes all 30 …
    assert_eq!(
        moved(|| {
            f.read_into("/d", &mut out).unwrap();
        }),
        (units - 12, bytes)
    );
    assert_eq!(out, data);
    // … and through a fresh handle, every unit once.
    let fresh = File::open(&path).unwrap();
    assert_eq!(
        moved(|| {
            fresh.read_into("/d", &mut out).unwrap();
        }),
        (units, bytes)
    );
    assert_eq!(
        moved(|| {
            fresh.read_into("/d", &mut out).unwrap();
        }),
        (0, bytes)
    );
    // The scrub hashes everything again (it is what re-detects rot) and
    // decodes nothing.
    assert_eq!(
        moved(|| {
            assert!(fresh.verify_all().unwrap().is_clean());
        }),
        (units, 0)
    );
    std::fs::remove_file(&path).ok();
}
