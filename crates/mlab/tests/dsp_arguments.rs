//! Out-of-range arguments to the DSP builtins are interpreter errors that
//! name the argument, never a panic inside `dsp`.

use mlab::Interp;

/// The error `src` stops with.
fn error_of(src: &str) -> String {
    match Interp::new().run(src) {
        Err(e) => e.to_string(),
        Ok(()) => panic!("{src:?} ran without an error"),
    }
}

#[test]
fn whiten_with_a_reversed_band_is_an_error() {
    let e = error_of("x = whiten([1 2 3 4 5 6 7 8], 0.6, 0.05);");
    assert!(
        e.contains("whiten") && e.contains("LO = 0.6, HI = 0.05"),
        "{e}"
    );
}

#[test]
fn resample_by_a_zero_factor_is_an_error() {
    let e = error_of("y = resample([1 2 3 4], 0, 2);");
    assert!(e.contains("resample") && e.contains("P = 0"), "{e}");
}

#[test]
fn butter_of_order_zero_is_an_error() {
    let e = error_of("[b, a] = butter(0, 0.3);");
    assert!(e.contains("butter") && e.contains("order N"), "{e}");
}

#[test]
fn butter_with_a_reversed_bandpass_is_an_error() {
    let e = error_of("[b, a] = butter(4, [0.5 0.2]);");
    assert!(e.contains("butter") && e.contains("[0.5 0.2]"), "{e}");
}
