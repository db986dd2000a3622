//! The DAS file schema (paper Figure 4): a 2-D `channel × time` array
//! plus two levels of key-value metadata in a dasf file.

use super::timestamp::Timestamp;
use crate::{DassaError, Result};
use arrayudf::Array2;
use dasf::{File, Value, Writer};
use std::path::Path;

/// Canonical dataset path inside a DAS file.
pub const DATASET_PATH: &str = "/Measurement/data";

/// Attribute keys, verbatim from the paper's Figure 4.
pub mod keys {
    pub const SAMPLING_FREQUENCY: &str = "SamplingFrequency(HZ)";
    pub const SPATIAL_RESOLUTION: &str = "SpatialResolution(m)";
    pub const TIMESTAMP: &str = "TimeStamp(yymmddhhmmss)";
    pub const NUM_CHANNELS: &str = "Number of objects";
    pub const SAMPLES_PER_CHANNEL: &str = "Number of raw data values";
}

/// Parsed global metadata of one DAS file.
#[derive(Debug, Clone, PartialEq)]
pub struct DasFileMeta {
    /// Sampling rate per channel in Hz (paper: 500).
    pub sampling_hz: i64,
    /// Channel spacing along the fiber in metres (paper: 2).
    pub spatial_resolution_m: f64,
    /// Acquisition start time.
    pub timestamp: Timestamp,
    /// Number of channels (paper: 11648).
    pub channels: u64,
    /// Time samples per channel in this file (paper: 30000 per minute).
    pub samples: u64,
}

impl DasFileMeta {
    /// Read and validate the metadata of a DAS file without touching
    /// array data (a metadata-only open).
    pub fn from_file(file: &File) -> Result<DasFileMeta> {
        let path = file.path().display().to_string();
        let need = |key: &'static str| -> Result<&Value> {
            file.attr("/", key).ok_or(DassaError::MissingMetadata {
                path: path.clone(),
                key,
            })
        };
        let ts_str = need(keys::TIMESTAMP)?
            .as_str()
            .ok_or(DassaError::MissingMetadata {
                path: path.clone(),
                key: keys::TIMESTAMP,
            })?
            .to_string();
        let meta = DasFileMeta {
            sampling_hz: need(keys::SAMPLING_FREQUENCY)?.as_int().unwrap_or(0),
            spatial_resolution_m: need(keys::SPATIAL_RESOLUTION)?.as_float().unwrap_or(0.0),
            timestamp: Timestamp::parse(&ts_str)?,
            channels: need(keys::NUM_CHANNELS)?.as_int().unwrap_or(0) as u64,
            samples: need(keys::SAMPLES_PER_CHANNEL)?.as_int().unwrap_or(0) as u64,
        };
        // Cross-check against the dataset extent.
        let ds = file.dataset(DATASET_PATH)?;
        if ds.dims != vec![meta.channels, meta.samples] {
            return Err(DassaError::Inconsistent(format!(
                "{path}: dataset dims {:?} disagree with metadata {}x{}",
                ds.dims, meta.channels, meta.samples
            )));
        }
        Ok(meta)
    }

    /// Duration covered by this file in whole minutes (paper: 1). A rate
    /// that is not positive, or too large to count a minute of samples in
    /// a `u64`, covers no whole minute.
    pub fn duration_minutes(&self) -> u64 {
        u64::try_from(self.sampling_hz)
            .ok()
            .and_then(|hz| hz.checked_mul(60))
            .and_then(|per_minute| self.samples.checked_div(per_minute))
            .unwrap_or(0)
    }
}

/// Write one DAS file in the Figure 4 schema: global attributes at the
/// root, per-channel metadata under `/Measurement`, and the 2-D
/// `channel × time` amplitude array at [`DATASET_PATH`].
pub fn write_das_file(path: &Path, meta: &DasFileMeta, data: &Array2<f32>) -> Result<()> {
    write_das_file_with_layout(path, meta, data, None)
}

/// [`write_das_file`] with an explicit storage layout: `Some((ch, t))`
/// stores the amplitude array chunked on a `ch × t` grid (per-channel
/// window reads then touch only intersecting chunks), `None` stores it
/// contiguously.
pub fn write_das_file_with_layout(
    path: &Path,
    meta: &DasFileMeta,
    data: &Array2<f32>,
    chunk: Option<(u64, u64)>,
) -> Result<()> {
    write_das_file_with_codec(path, meta, data, chunk, dasf::Codec::Raw)
}

/// [`write_das_file_with_layout`] with an on-disk codec: the amplitude
/// array is stored through `codec` (checksums cover the stored bytes,
/// so scrub and fsck work unchanged on compressed files).
pub fn write_das_file_with_codec(
    path: &Path,
    meta: &DasFileMeta,
    data: &Array2<f32>,
    chunk: Option<(u64, u64)>,
    codec: dasf::Codec,
) -> Result<()> {
    assert_eq!(data.rows() as u64, meta.channels, "channel count mismatch");
    assert_eq!(data.cols() as u64, meta.samples, "sample count mismatch");
    let mut w = Writer::create(path)?;
    w.set_codec(codec)?;
    w.set_attr("/", keys::SAMPLING_FREQUENCY, Value::Int(meta.sampling_hz))?;
    w.set_attr(
        "/",
        keys::SPATIAL_RESOLUTION,
        Value::Float(meta.spatial_resolution_m),
    )?;
    w.set_attr(
        "/",
        keys::TIMESTAMP,
        Value::Str(meta.timestamp.to_compact()),
    )?;
    w.set_attr("/", keys::NUM_CHANNELS, Value::Int(meta.channels as i64))?;
    w.set_attr(
        "/",
        keys::SAMPLES_PER_CHANNEL,
        Value::Int(meta.samples as i64),
    )?;
    w.create_group("/Measurement")?;
    match chunk {
        None => w.write_dataset_f32(
            DATASET_PATH,
            &[meta.channels, meta.samples],
            data.as_slice(),
        )?,
        Some((ch, t)) => w.write_dataset_chunked(
            DATASET_PATH,
            &[meta.channels, meta.samples],
            &[ch.max(1), t.max(1)],
            data.as_slice(),
        )?,
    }
    w.finish()?;
    Ok(())
}

/// Conventional DAS file name for a timestamp, mirroring the
/// `westSac_<yymmddhhmmss>.dasf` pattern of the acquisition in the paper.
pub fn das_file_name(ts: &Timestamp) -> String {
    format!("westSac_{}.dasf", ts.to_compact())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join("dassa-meta-tests");
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_meta() -> DasFileMeta {
        DasFileMeta {
            sampling_hz: 500,
            spatial_resolution_m: 2.0,
            timestamp: Timestamp::parse("170620100545").unwrap(),
            channels: 4,
            samples: 30,
        }
    }

    #[test]
    fn write_read_round_trip() {
        let meta = sample_meta();
        let data = Array2::from_fn(4, 30, |r, c| (r * 100 + c) as f32);
        let path = tmpdir().join(das_file_name(&meta.timestamp));
        write_das_file(&path, &meta, &data).unwrap();

        let f = File::open(&path).unwrap();
        let back = DasFileMeta::from_file(&f).unwrap();
        assert_eq!(back, meta);
        let raw = f.read_f32(DATASET_PATH).unwrap();
        assert_eq!(raw, data.as_slice());
    }

    #[test]
    fn chunked_das_file_reads_identically() {
        let meta = sample_meta();
        let data = Array2::from_fn(4, 30, |r, c| (r * 100 + c) as f32);
        let dir = tmpdir();
        let contiguous = dir.join("layout-cont.dasf");
        let chunked = dir.join("layout-chunk.dasf");
        write_das_file(&contiguous, &meta, &data).unwrap();
        write_das_file_with_layout(&chunked, &meta, &data, Some((2, 8))).unwrap();
        let fc = File::open(&contiguous).unwrap();
        let fk = File::open(&chunked).unwrap();
        assert_eq!(DasFileMeta::from_file(&fk).unwrap(), meta);
        assert_eq!(
            fc.read_f32(DATASET_PATH).unwrap(),
            fk.read_f32(DATASET_PATH).unwrap()
        );
        assert_eq!(
            fc.read_hyperslab_f32(DATASET_PATH, &[(1, 2), (5, 13)])
                .unwrap(),
            fk.read_hyperslab_f32(DATASET_PATH, &[(1, 2), (5, 13)])
                .unwrap()
        );
    }

    #[test]
    fn missing_metadata_detected() {
        let path = tmpdir().join("bare.dasf");
        let mut w = Writer::create(&path).unwrap();
        w.create_group("/Measurement").unwrap();
        w.write_dataset_f32(DATASET_PATH, &[1, 2], &[0.0, 1.0])
            .unwrap();
        w.finish().unwrap();
        let f = File::open(&path).unwrap();
        match DasFileMeta::from_file(&f) {
            Err(DassaError::MissingMetadata { key, .. }) => {
                // The timestamp is validated first (it gates parsing).
                assert_eq!(key, keys::TIMESTAMP);
            }
            other => panic!("expected MissingMetadata, got {other:?}"),
        }
    }

    #[test]
    fn dims_metadata_disagreement_detected() {
        let meta = sample_meta();
        let path = tmpdir().join("lies.dasf");
        let mut w = Writer::create(&path).unwrap();
        w.set_attr("/", keys::SAMPLING_FREQUENCY, Value::Int(meta.sampling_hz))
            .unwrap();
        w.set_attr("/", keys::SPATIAL_RESOLUTION, Value::Float(2.0))
            .unwrap();
        w.set_attr(
            "/",
            keys::TIMESTAMP,
            Value::Str(meta.timestamp.to_compact()),
        )
        .unwrap();
        w.set_attr("/", keys::NUM_CHANNELS, Value::Int(99)).unwrap(); // lie
        w.set_attr("/", keys::SAMPLES_PER_CHANNEL, Value::Int(30))
            .unwrap();
        w.create_group("/Measurement").unwrap();
        w.write_dataset_f32(DATASET_PATH, &[4, 30], &[0.0; 120])
            .unwrap();
        w.finish().unwrap();
        let f = File::open(&path).unwrap();
        assert!(matches!(
            DasFileMeta::from_file(&f),
            Err(DassaError::Inconsistent(_))
        ));
    }

    #[test]
    fn duration_minutes_from_sampling() {
        let mut meta = sample_meta();
        meta.samples = 30000;
        meta.sampling_hz = 500;
        assert_eq!(meta.duration_minutes(), 1);
        meta.samples = 60000;
        assert_eq!(meta.duration_minutes(), 2);
        meta.sampling_hz = 0;
        assert_eq!(meta.duration_minutes(), 0);
        meta.sampling_hz = 1 << 62; // a minute's sample count overflows
        assert_eq!(meta.duration_minutes(), 0);
    }

    #[test]
    fn file_name_convention() {
        let ts = Timestamp::parse("170728224510").unwrap();
        assert_eq!(das_file_name(&ts), "westSac_170728224510.dasf");
    }
}
