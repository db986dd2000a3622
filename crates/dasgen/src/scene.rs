//! Scene description and rendering.

use crate::events::Event;
use crate::noise::ChannelNoise;
use arrayudf::Array2;

/// A complete synthetic acquisition: array geometry + noise + events.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    /// Number of channels along the fiber (paper: 11,648).
    pub channels: usize,
    /// Samples per second per channel (paper: 500).
    pub sampling_hz: f64,
    /// Channel spacing in metres (paper: 2).
    pub spatial_resolution_m: f64,
    /// RMS of the ambient noise before the spatial profile.
    pub noise_level: f64,
    /// Signal sources.
    pub events: Vec<Event>,
    /// Channels whose output is (near-)dead — broken splices, bad
    /// couplings. Real DAS arrays always have some; QC must find them.
    pub dead_channels: Vec<usize>,
    /// Channels with a clipping/spiking instrument fault.
    pub noisy_channels: Vec<usize>,
    /// Master seed: everything is a pure function of this.
    pub seed: u64,
}

impl Scene {
    /// A laptop-friendly scaled-down geometry keeping the paper's
    /// structure (the scaling applied throughout local experiments).
    pub fn small(channels: usize, sampling_hz: f64, seed: u64) -> Scene {
        Scene {
            channels,
            sampling_hz,
            spatial_resolution_m: 2.0,
            noise_level: 1.0,
            events: Vec::new(),
            dead_channels: Vec::new(),
            noisy_channels: Vec::new(),
            seed,
        }
    }

    /// The Figure 1b / Figure 10 demonstration scene, scaled: two
    /// vehicles crossing the array in opposite directions, one M4.4-like
    /// earthquake, and a persistent vibration source.
    pub fn demo(channels: usize, sampling_hz: f64, duration_s: f64, seed: u64) -> Scene {
        let ch = channels as f64;
        let mut scene = Scene::small(channels, sampling_hz, seed);
        scene.events = vec![
            Event::Vehicle {
                start_s: 0.05 * duration_s,
                start_channel: 0.0,
                speed_ch_per_s: ch / (duration_s * 0.8),
                amplitude: 3.0,
                width_channels: (ch * 0.01).max(2.0),
                freq_hz: sampling_hz * 0.06,
            },
            Event::Vehicle {
                start_s: 0.25 * duration_s,
                start_channel: ch,
                speed_ch_per_s: -ch / (duration_s * 0.6),
                amplitude: 2.5,
                width_channels: (ch * 0.012).max(2.0),
                freq_hz: sampling_hz * 0.08,
            },
            Event::Earthquake {
                origin_s: 0.55 * duration_s,
                epicenter_channel: ch * 0.35,
                p_speed_ch_per_s: ch / (duration_s * 0.04),
                s_speed_ch_per_s: ch / (duration_s * 0.09),
                // An M4.4 at close range dominates the record (Fig. 1b).
                amplitude: 14.0,
                freq_hz: sampling_hz * 0.02,
            },
            Event::Persistent {
                channel: ch * 0.8,
                width_channels: (ch * 0.008).max(1.5),
                freq_hz: sampling_hz * 0.12,
                amplitude: 1.8,
            },
        ];
        scene
    }

    /// Samples per channel for `seconds` of recording.
    pub fn samples_for(&self, seconds: f64) -> usize {
        (self.sampling_hz * seconds).round() as usize
    }

    /// Render the window starting `t0_s` seconds into the acquisition,
    /// `samples` long, as `(noise, events)` components; the recorded
    /// array is their sum. Ground-truth masks come from the second part.
    pub fn render_components(&self, t0_s: f64, samples: usize) -> (Array2<f32>, Array2<f32>) {
        let start_sample = (t0_s * self.sampling_hz).round() as u64;
        let dt = 1.0 / self.sampling_hz;
        let mut noise = vec![0f32; self.channels * samples];
        let mut signal = vec![0f32; self.channels * samples];
        for ch in 0..self.channels {
            let mut gen = ChannelNoise::new(self.seed, ch, self.noise_level);
            let row = ch * samples;
            let dead = self.dead_channels.contains(&ch);
            let spiky = self.noisy_channels.contains(&ch);
            for s in 0..samples {
                let abs_sample = start_sample + s as u64;
                let t = abs_sample as f64 * dt;
                let n = gen.sample_at(abs_sample);
                if dead {
                    // Instrument floor only: 1000x below ambient.
                    noise[row + s] = (n * 1e-3) as f32;
                    signal[row + s] = 0.0;
                    continue;
                }
                noise[row + s] = if spiky {
                    // Heavy-tailed fault: occasional large spikes.
                    let burst = if (abs_sample.wrapping_mul(2654435761) >> 22).is_multiple_of(97) {
                        100.0 * n.signum()
                    } else {
                        0.0
                    };
                    (n + burst) as f32
                } else {
                    n as f32
                };
                let mut e = 0.0;
                for ev in &self.events {
                    e += ev.sample(t, ch as f64);
                }
                signal[row + s] = e as f32;
            }
        }
        (
            Array2::from_vec(self.channels, samples, noise),
            Array2::from_vec(self.channels, samples, signal),
        )
    }

    /// Render the recorded array (noise + events) for a window.
    pub fn render(&self, t0_s: f64, samples: usize) -> Array2<f32> {
        let (noise, signal) = self.render_components(t0_s, samples);
        let mut data = noise.into_vec();
        for (d, s) in data.iter_mut().zip(signal.as_slice()) {
            *d += s;
        }
        Array2::from_vec(self.channels, samples, data)
    }

    /// Ground-truth event mask for a (possibly strided) window: `true`
    /// where any event is active. Matches the output grid of a
    /// local-similarity map computed with the same `time_stride`.
    pub fn ground_truth_mask(&self, t0_s: f64, samples: usize, time_stride: usize) -> Array2<bool> {
        let dt = 1.0 / self.sampling_hz;
        let cols = samples.div_ceil(time_stride.max(1));
        Array2::from_fn(self.channels, cols, |ch, si| {
            let t = t0_s + (si * time_stride) as f64 * dt;
            self.events.iter().any(|e| e.is_active(t, ch as f64))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scene() -> Scene {
        Scene::demo(32, 100.0, 20.0, 99)
    }

    #[test]
    fn render_is_deterministic() {
        let scene = tiny_scene();
        let a = scene.render(2.0, 300);
        let b = scene.render(2.0, 300);
        assert_eq!(a, b);
    }

    #[test]
    fn windows_are_consistent() {
        // Rendering [0, 400) must agree with [200, 400) on the overlap.
        let scene = tiny_scene();
        let full = scene.render(0.0, 400);
        let tail = scene.render(2.0, 200); // 2 s @ 100 Hz = sample 200
        for ch in 0..scene.channels {
            for s in 0..200 {
                assert_eq!(full.get(ch, 200 + s), tail.get(ch, s), "ch={ch} s={s}");
            }
        }
    }

    #[test]
    fn events_lift_energy_above_noise_floor() {
        let scene = tiny_scene();
        let (noise, signal) = scene.render_components(0.0, scene.samples_for(20.0));
        let energy = |a: &Array2<f32>| {
            a.as_slice()
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum::<f64>()
        };
        assert!(
            energy(&signal) > 0.5 * energy(&noise),
            "events must be visible"
        );
    }

    #[test]
    fn mask_grid_matches_strided_output() {
        let scene = tiny_scene();
        let mask = scene.ground_truth_mask(0.0, 1000, 25);
        assert_eq!(mask.rows(), 32);
        assert_eq!(mask.cols(), 40);
        let any_active = mask.as_slice().iter().any(|&b| b);
        let any_quiet = mask.as_slice().iter().any(|&b| !b);
        assert!(any_active && any_quiet);
    }

    #[test]
    fn dead_and_noisy_channels_render_as_such() {
        let mut scene = Scene::small(6, 50.0, 9);
        scene.dead_channels = vec![2];
        scene.noisy_channels = vec![4];
        let data = scene.render(0.0, 2000);
        let rms = |ch: usize| {
            (data
                .row(ch)
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum::<f64>()
                / 2000.0)
                .sqrt()
        };
        let peak = |ch: usize| data.row(ch).iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(rms(2) < 1e-2 * rms(0), "dead channel must be quiet");
        assert!(peak(4) > 10.0 * peak(0), "noisy channel must spike");
    }

    #[test]
    fn no_events_means_pure_noise() {
        let scene = Scene::small(8, 50.0, 5);
        let (noise, signal) = scene.render_components(0.0, 100);
        assert!(signal.as_slice().iter().all(|&v| v == 0.0));
        assert!(noise.as_slice().iter().any(|&v| v != 0.0));
    }
}
