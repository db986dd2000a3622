//! Local calibration of the at-scale cost model, driven by `obs`.
//!
//! The `perfmodel` crate extrapolates to Cori scale, but its compute
//! rates are anchored to *measured* throughput of the actual DASSA
//! kernels on this machine. Rather than wrapping each probe in bespoke
//! stopwatch plumbing, the probes simply run and the rates are derived
//! from the observability metrics the instrumented pipelines already
//! emit (`span.interferometry`, `span.local_similarity`,
//! `dasf.write.*`) — the same numbers `das_pipeline --metrics` exports.

use arrayudf::Array2;
use dassa::prelude::*;
use perfmodel::{Calibration, CalibrationWorkload};

/// Deterministic band-limited test array (`channels × samples`, f64).
pub fn test_array(channels: usize, samples: usize) -> Array2<f64> {
    Array2::from_fn(channels, samples, |c, t| {
        let tt = t as f64;
        (0.05 * (tt - c as f64 * 2.0)).sin()
            + 0.4 * (0.021 * tt + c as f64).sin()
            + 0.1 * ((c * 7919 + t * 104729) % 1000) as f64 / 1000.0
    })
}

/// Minimum wall time each probe accumulates before its rate is trusted.
const MIN_PROBE_S: f64 = 0.3;

/// Run the interferometry probe until it has accumulated enough wall
/// time; the timings land in the `span.interferometry` histogram.
/// Returns the raw input bytes pushed through.
fn probe_interferometry() -> u64 {
    let (channels, samples) = (16usize, 6000usize);
    let data = test_array(channels, samples);
    let analysis = Analysis::Interferometry(InterferometryParams::default());
    let haee = Haee::builder().threads(1).build();
    let mut bytes = 0u64;
    let t0 = std::time::Instant::now();
    while t0.elapsed().as_secs_f64() < MIN_PROBE_S {
        std::hint::black_box(dasa::run(&analysis, &data, &haee).expect("pipeline runs"));
        bytes += (channels * samples * 8) as u64;
    }
    bytes
}

/// Run the local-similarity probe (`span.local_similarity` histogram);
/// returns the input bytes processed.
fn probe_localsim() -> u64 {
    let (channels, samples) = (16usize, 2000usize);
    let data = test_array(channels, samples);
    let analysis = Analysis::LocalSimilarity(LocalSimiParams::default());
    let haee = Haee::builder().threads(1).build();
    let mut bytes = 0u64;
    let t0 = std::time::Instant::now();
    while t0.elapsed().as_secs_f64() < MIN_PROBE_S {
        std::hint::black_box(dasa::run(&analysis, &data, &haee).expect("pipeline runs"));
        bytes += (channels * samples * 8) as u64;
    }
    bytes
}

/// Write dasf datasets until enough wall time has accumulated; bytes
/// and nanoseconds land in the `dasf.write.*` metrics, from which the
/// snapshot delta derives bandwidth — no return value needed.
fn probe_write() {
    let dir = std::env::temp_dir().join("dassa-calibrate");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("write_probe.dasf");
    let block = vec![0.0f32; 2 << 20]; // 8 MiB of f32 payload
    let t0 = std::time::Instant::now();
    while t0.elapsed().as_secs_f64() < MIN_PROBE_S {
        let mut w = dasf::Writer::create(&path).expect("create probe file");
        w.write_dataset_f32("/probe", &[block.len() as u64], &block)
            .expect("write probe");
        w.finish().expect("finish probe");
    }
    let _ = std::fs::remove_file(&path);
}

/// Run the full calibration suite: snapshot the global metrics
/// registry, run the probes, and let [`Calibration::from_obs_delta`]
/// turn the metric deltas into rates.
pub fn calibrate() -> Calibration {
    let before = obs::global().snapshot();
    let work = CalibrationWorkload {
        interferometry_bytes: probe_interferometry(),
        localsim_bytes: probe_localsim(),
    };
    probe_write();
    let after = obs::global().snapshot();
    Calibration::from_obs_delta(&before, &after, &work)
}

#[cfg(test)]
mod tests {
    use perfmodel::Calibration;

    #[test]
    fn calibrate_yields_sane_measured_rates() {
        let cal = super::calibrate();
        for (name, rate) in [
            ("compute", cal.compute_bytes_per_s_per_core),
            ("localsim", cal.localsim_bytes_per_s_per_core),
            ("write", cal.write_bytes_per_s),
        ] {
            assert!(rate > 1e4, "implausibly slow {name}: {rate} B/s");
            assert!(rate < 1e12, "implausibly fast {name}: {rate} B/s");
        }
        // The rates must come from the snapshot delta, not the model's
        // built-in defaults (probes always record nonzero time).
        let d = Calibration::default();
        assert_ne!(
            cal.compute_bytes_per_s_per_core,
            d.compute_bytes_per_s_per_core
        );
        assert_ne!(cal.write_bytes_per_s, d.write_bytes_per_s);
    }
}
