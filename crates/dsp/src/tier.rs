//! The one instruction-set choice in `dsp`, made at run time: a lockstep
//! lane kernel runs as compiled for the baseline target or, on an x86-64
//! CPU with AVX2, as compiled with AVX2 enabled. Both copies come from
//! the same Rust — the kernel body is `#[inline(always)]`, so each runner
//! below compiles its own — and the AVX2 copy advances four `f64` lanes
//! per vector instruction where the baseline one advances two.
//!
//! Four kernels run here: `FiltFilt`'s fixed-size passes and
//! `max_abscorr_lags`' lag groups (the same lanes on either tier), the
//! `Resampler`'s lane loop (16 outputs at a time on the baseline, 32 on
//! AVX2: eight of either tier's sixteen vector registers) and the FFT's
//! Stockham passes (four butterflies at a time wherever four share a
//! twiddle). A kernel whose lane count is a constant of its tier reads
//! the tier from [`Kernel::run`]'s `WIDE` parameter, a constant in each
//! runner; nothing else picks it.
//!
//! Only `avx2` is enabled, never `fma`. rustc does not contract
//! `a * b + c` into a fused multiply-add, and with no FMA in the feature
//! set LLVM has no instruction to contract it into either, so every lane
//! keeps its operations, their order and their rounding: a kernel gives
//! the same bits on either tier, whatever its lane count there. The lane
//! suites assert it on both (`each`, in tests).
//!
//! `is_x86_feature_detected!` is the one CPU probe; `std` caches its
//! answer after the first call, so choosing costs a load and a bit test
//! per kernel call. Other targets, and x86-64 CPUs without AVX2, run the
//! baseline copy.

/// A kernel body, compiled once per tier. Implementations mark
/// [`run`](Kernel::run) `#[inline(always)]` and call only
/// `#[inline(always)]` code, so each runner holds a whole copy of the
/// kernel built with its own instruction set. `WIDE` is `true` in the
/// AVX2 runner and `false` in the baseline one.
pub(crate) trait Kernel {
    type Output;
    fn run<const WIDE: bool>(self) -> Self::Output;
}

/// Run `kernel` on the widest tier this CPU has.
#[inline]
pub(crate) fn run<K: Kernel>(kernel: K) -> K::Output {
    #[cfg(target_arch = "x86_64")]
    if avx2_chosen() {
        // SAFETY: `avx2` is the only feature the runner enables, and
        // `avx2_chosen` is true only on a CPU that reported it (a test
        // forces the AVX2 tier only through `each`, after the same
        // probe).
        return unsafe { avx2(kernel) };
    }
    baseline(kernel)
}

/// The kernel as compiled for the build's own target.
#[inline(never)]
fn baseline<K: Kernel>(kernel: K) -> K::Output {
    kernel.run::<false>()
}

/// The kernel as compiled with AVX2; callable only where the CPU has
/// it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.run::<true>()
}

/// Whether [`run`] takes the AVX2 runner on this thread.
#[cfg(target_arch = "x86_64")]
fn avx2_chosen() -> bool {
    #[cfg(test)]
    if let Some(tier) = FORCED.get() {
        return tier == Tier::Avx2;
    }
    std::is_x86_feature_detected!("avx2")
}

/// The instruction sets a kernel may run on.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    Baseline,
    Avx2,
}

#[cfg(test)]
thread_local! {
    /// The tier [`run`] takes on this thread, when a test chose one.
    static FORCED: std::cell::Cell<Option<Tier>> = const { std::cell::Cell::new(None) };
}

/// Run `check` once on each tier this CPU has, with every kernel the
/// check calls on this thread pinned to that tier; a tier the CPU lacks
/// is skipped with a note on stderr.
#[cfg(test)]
pub(crate) fn each(mut check: impl FnMut(Tier)) {
    #[cfg(target_arch = "x86_64")]
    let has_avx2 = std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let has_avx2 = false;
    for tier in [Tier::Baseline, Tier::Avx2] {
        if tier == Tier::Avx2 && !has_avx2 {
            eprintln!("note: this CPU has no AVX2; the AVX2 tier is not checked");
            continue;
        }
        let before = FORCED.replace(Some(tier));
        check(tier);
        FORCED.set(before);
    }
}
