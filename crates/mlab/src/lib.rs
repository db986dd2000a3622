//! `mlab` — a MATLAB-style interpreted array language.
//!
//! The DASSA paper's Figure 9 compares the DASSA pipeline against "the
//! same real DAS data analysis pipeline developed with MATLAB", the
//! platform the collaborating geophysicists actually use. MATLAB is
//! proprietary, so this crate reproduces the *mechanisms* that give an
//! interpreted array environment its performance profile, rather than
//! hard-coding a slowdown:
//!
//! * a tree-walking interpreter — per-statement and per-operator
//!   dispatch overhead;
//! * value semantics — assignments and argument passing copy arrays
//!   (MATLAB's copy-on-write pessimized to copy-always, as in the
//!   worst case of real pipelines);
//! * vectorized builtins that call the **same** `dsp` kernels DASSA
//!   uses, so numerical results agree with the native pipeline while
//!   control flow pays interpretation costs — exactly why "it is
//!   difficult for the whole Matlab code pipeline to be parallelized"
//!   while individual builtins are fast.
//!
//! Supported language: numeric scalars/matrices/complex matrices,
//! strings, arithmetic (`+ - * / ^` and element-wise `.* ./ .^`),
//! comparisons, ranges `a:b`, `a:s:b`, matrix literals `[1 2; 3 4]`,
//! 1-/2-D indexing and slicing with `:` (read and write), `for`/`if`/
//! `while`, multi-assignment `[b, a] = butter(...)`, and a builtin
//! library covering the paper's Table II (`detrend`, `butter`,
//! `filtfilt`, `resample`, `interp1`, `fft`, `ifft`, `abscorr`, …).
//!
//! # Example
//! ```
//! use mlab::Interp;
//! let mut interp = Interp::new();
//! interp.run("x = [1 2 3 4]; y = sum(x .* x);").unwrap();
//! assert_eq!(interp.get_scalar("y").unwrap(), 30.0);
//! ```

#![forbid(unsafe_code)]

mod ast;
mod builtins;
pub mod dassa_bridge;
mod interp;
mod lexer;
mod parser;
mod value;

pub use interp::{Interp, MlabError};
pub use value::Value;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_script() {
        let mut i = Interp::new();
        i.run(
            "total = 0;\n\
             for k = 1:10\n\
               total = total + k^2;\n\
             end",
        )
        .unwrap();
        assert_eq!(i.get_scalar("total").unwrap(), 385.0);
    }
}
