//! DasLib kernel microbenchmarks (the operations of paper Table II).
//!
//! These are the building blocks of both case-study pipelines; their
//! single-core throughput also calibrates the at-scale cost model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dsp::{
    abscorr, butter, detrend, fft_real, filtfilt, interp1, resample, xcorr_fft, CorrMode,
    FilterBand,
};
use std::hint::black_box;

fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            (0.05 * t).sin() + 0.4 * (0.021 * t).sin() + 0.1 * ((i * 7919) % 1000) as f64 / 1000.0
        })
        .collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft");
    for &n in &[1024usize, 4096, 30000] {
        // 30000 = one paper minute at 500 Hz — a non-power-of-two that
        // exercises the radix-3 and radix-5 passes.
        let x = signal(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &x, |b, x| {
            b.iter(|| fft_real(black_box(x)))
        });
    }
    g.finish();
}

fn bench_filtfilt(c: &mut Criterion) {
    let mut g = c.benchmark_group("filtfilt");
    let (bb, aa) = butter(4, FilterBand::Bandpass(0.01, 0.4));
    for &n in &[1000usize, 10000, 30000] {
        let x = signal(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &x, |b, x| {
            b.iter(|| filtfilt(black_box(&bb), black_box(&aa), black_box(x)))
        });
    }
    g.finish();
}

fn bench_butter_design(c: &mut Criterion) {
    c.bench_function("butter_design_order4_bandpass", |b| {
        b.iter(|| butter(black_box(4), FilterBand::Bandpass(0.01, 0.4)))
    });
}

fn bench_resample(c: &mut Criterion) {
    let mut g = c.benchmark_group("resample_1_2");
    for &n in &[10000usize, 30000] {
        let x = signal(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &x, |b, x| {
            b.iter(|| resample(black_box(x), 1, 2))
        });
    }
    g.finish();
}

fn bench_detrend(c: &mut Criterion) {
    let x = signal(30000);
    c.bench_function("detrend_30000", |b| b.iter(|| detrend(black_box(&x))));
}

fn bench_abscorr(c: &mut Criterion) {
    let mut g = c.benchmark_group("abscorr");
    for &n in &[51usize, 1001, 15000] {
        let x = signal(n);
        let y: Vec<f64> = x.iter().rev().cloned().collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| abscorr(black_box(&x), black_box(&y)))
        });
    }
    g.finish();
}

fn bench_xcorr(c: &mut Criterion) {
    let x = signal(4096);
    c.bench_function("xcorr_fft_4096", |b| {
        b.iter(|| xcorr_fft(black_box(&x), black_box(&x), CorrMode::Full))
    });
}

fn bench_ambient_noise_toolbox(c: &mut Criterion) {
    let x = signal(30000);
    let mut g = c.benchmark_group("ambient_noise_toolbox");
    g.throughput(Throughput::Elements(30000));
    g.bench_function("whiten_30000", |b| {
        b.iter(|| dsp::whiten(black_box(&x), 0.02, 0.5, 0.01))
    });
    g.bench_function("envelope_30000", |b| {
        b.iter(|| dsp::envelope(black_box(&x)))
    });
    g.bench_function("one_bit_30000", |b| b.iter(|| dsp::one_bit(black_box(&x))));
    g.bench_function("running_abs_mean_30000", |b| {
        b.iter(|| dsp::running_abs_mean(black_box(&x), 50))
    });
    g.bench_function("welch_psd_30000", |b| {
        b.iter(|| dsp::welch_psd(black_box(&x), 256, 128))
    });
    g.bench_function("spectrogram_30000", |b| {
        b.iter(|| dsp::spectrogram(black_box(&x), 256, 128))
    });
    g.finish();
}

fn bench_interp1(c: &mut Criterion) {
    let x0: Vec<f64> = (0..1000).map(|i| i as f64).collect();
    let y0 = signal(1000);
    let xq: Vec<f64> = (0..5000).map(|i| i as f64 * 0.19).collect();
    c.bench_function("interp1_1000knots_5000q", |b| {
        b.iter(|| interp1(black_box(&x0), black_box(&y0), black_box(&xq)))
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_fft, bench_filtfilt, bench_butter_design, bench_resample,
              bench_detrend, bench_abscorr, bench_xcorr, bench_interp1,
              bench_ambient_noise_toolbox
}
criterion_main!(kernels);
