//! Builtin function library.
//!
//! Vectorized kernels dispatch to the same `dsp` crate DASSA's native
//! pipeline uses, so `mlab` scripts and DASSA agree numerically; the
//! interpreter around them supplies the per-statement overhead that
//! characterizes the MATLAB baseline of Figure 9.

use crate::interp::Interp;
use crate::value::Value;
use dsp::FilterBand;

/// Invoke builtin `name` with `argv`; returns one or more values
/// (multi-assignment consumes more than one, e.g. `[b, a] = butter(…)`).
pub fn call(interp: &mut Interp, name: &str, argv: Vec<Value>) -> Result<Vec<Value>, String> {
    // Interactive DASSA builtins (das_read, das_local_similarity, …).
    if let Some(result) = crate::dassa_bridge::call(name, &argv) {
        return result;
    }
    let one = |v: Value| Ok(vec![v]);
    match name {
        // ---- construction ------------------------------------------------
        "zeros" | "ones" => {
            let fill = if name == "zeros" { 0.0 } else { 1.0 };
            let (r, c) = dims_from_args(&argv)?;
            one(Value::Matrix {
                rows: r,
                cols: c,
                data: vec![fill; r * c],
            })
        }
        "linspace" => {
            let a = arg(&argv, 0)?.as_scalar()?;
            let b = arg(&argv, 1)?.as_scalar()?;
            let n = arg(&argv, 2)?.as_scalar()? as usize;
            if n < 2 {
                return one(Value::row(vec![b]));
            }
            let step = (b - a) / (n - 1) as f64;
            one(Value::row((0..n).map(|i| a + step * i as f64).collect()))
        }
        // ---- shape --------------------------------------------------------
        "length" => one(Value::Num({
            let (r, c) = arg(&argv, 0)?.shape();
            r.max(c) as f64
        })),
        "numel" => one(Value::Num(arg(&argv, 0)?.numel() as f64)),
        "size" => {
            let (r, c) = arg(&argv, 0)?.shape();
            if argv.len() >= 2 {
                let d = arg(&argv, 1)?.as_scalar()? as usize;
                one(Value::Num(match d {
                    1 => r as f64,
                    2 => c as f64,
                    _ => 1.0,
                }))
            } else {
                one(Value::row(vec![r as f64, c as f64]))
            }
        }
        "isempty" => one(Value::Num(f64::from(arg(&argv, 0)?.numel() == 0))),
        // ---- elementwise math ----------------------------------------------
        "abs" => match arg(&argv, 0)? {
            Value::CMatrix { rows, cols, data } => one(Value::Matrix {
                rows: *rows,
                cols: *cols,
                data: data.iter().map(|z| z.abs()).collect(),
            }),
            v => map_real(v, f64::abs).map(|x| vec![x]),
        },
        "sqrt" => map_real(arg(&argv, 0)?, f64::sqrt).map(|v| vec![v]),
        "sin" => map_real(arg(&argv, 0)?, f64::sin).map(|v| vec![v]),
        "cos" => map_real(arg(&argv, 0)?, f64::cos).map(|v| vec![v]),
        "exp" => map_real(arg(&argv, 0)?, f64::exp).map(|v| vec![v]),
        "log" => map_real(arg(&argv, 0)?, f64::ln).map(|v| vec![v]),
        "floor" => map_real(arg(&argv, 0)?, f64::floor).map(|v| vec![v]),
        "round" => map_real(arg(&argv, 0)?, f64::round).map(|v| vec![v]),
        // ---- reductions -----------------------------------------------------
        "sum" => one(Value::Num(arg(&argv, 0)?.to_real_vec()?.iter().sum())),
        "mean" => {
            let v = arg(&argv, 0)?.to_real_vec()?;
            if v.is_empty() {
                return Err("mean of empty array".into());
            }
            one(Value::Num(v.iter().sum::<f64>() / v.len() as f64))
        }
        "max" => {
            if argv.len() >= 2 {
                // max(a, b) elementwise.
                return crate::value::elementwise(arg(&argv, 0)?, arg(&argv, 1)?, f64::max)
                    .map(|v| vec![v]);
            }
            let v = arg(&argv, 0)?.to_real_vec()?;
            let m = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            one(Value::Num(m))
        }
        "min" => {
            if argv.len() >= 2 {
                return crate::value::elementwise(arg(&argv, 0)?, arg(&argv, 1)?, f64::min)
                    .map(|v| vec![v]);
            }
            let v = arg(&argv, 0)?.to_real_vec()?;
            let m = v.iter().cloned().fold(f64::INFINITY, f64::min);
            one(Value::Num(m))
        }
        // ---- Table II: DasLib ------------------------------------------------
        "detrend" => {
            let x = arg(&argv, 0)?;
            let out =
                if argv.len() >= 2 && matches!(arg(&argv, 1)?, Value::Str(s) if s == "constant") {
                    dsp::detrend_constant(&x.to_real_vec()?)
                } else {
                    dsp::detrend(&x.to_real_vec()?)
                };
            one(Value::reshape_like(out, x))
        }
        "butter" => {
            let order = arg(&argv, 0)?.as_scalar()?;
            let n = order as usize;
            if n == 0 {
                return Err(format!("butter: order N must be at least 1, got {order}"));
            }
            let wn = arg(&argv, 1)?;
            let cutoff = |w: f64| {
                if w > 0.0 && w < 1.0 {
                    Ok(w)
                } else {
                    Err(format!(
                        "butter: cutoff Wn must lie in (0, 1) (a fraction of Nyquist), got {w}"
                    ))
                }
            };
            let band = match wn.numel() {
                2 => {
                    let v = wn.to_real_vec()?;
                    let (lo, hi) = (cutoff(v[0])?, cutoff(v[1])?);
                    if lo >= hi {
                        return Err(format!(
                            "butter: bandpass Wn = [low high] needs low < high, got [{lo} {hi}]"
                        ));
                    }
                    FilterBand::Bandpass(lo, hi)
                }
                1 => {
                    let w = cutoff(wn.as_scalar()?)?;
                    if argv.len() >= 3 && matches!(arg(&argv, 2)?, Value::Str(s) if s == "high") {
                        FilterBand::Highpass(w)
                    } else {
                        FilterBand::Lowpass(w)
                    }
                }
                other => return Err(format!("butter: Wn must have 1 or 2 elements, got {other}")),
            };
            let (b, a) = dsp::butter(n, band);
            Ok(vec![Value::row(b), Value::row(a)])
        }
        "filter" => {
            let b = arg(&argv, 0)?.to_real_vec()?;
            let a = arg(&argv, 1)?.to_real_vec()?;
            let x = arg(&argv, 2)?;
            one(Value::reshape_like(
                dsp::lfilter(&b, &a, &x.to_real_vec()?),
                x,
            ))
        }
        "filtfilt" => {
            let b = arg(&argv, 0)?.to_real_vec()?;
            let a = arg(&argv, 1)?.to_real_vec()?;
            let x = arg(&argv, 2)?;
            one(Value::reshape_like(
                dsp::filtfilt(&b, &a, &x.to_real_vec()?),
                x,
            ))
        }
        "resample" => {
            let x = arg(&argv, 0)?.to_real_vec()?;
            let (p_arg, q_arg) = (arg(&argv, 1)?.as_scalar()?, arg(&argv, 2)?.as_scalar()?);
            let (p, q) = (p_arg as usize, q_arg as usize);
            if p == 0 || q == 0 {
                return Err(format!(
                    "resample: factors P and Q must be positive integers, \
                     got P = {p_arg}, Q = {q_arg}"
                ));
            }
            one(Value::row(dsp::resample(&x, p, q)))
        }
        "interp1" => {
            let x0 = arg(&argv, 0)?.to_real_vec()?;
            let y0 = arg(&argv, 1)?.to_real_vec()?;
            let xq = arg(&argv, 2)?.to_real_vec()?;
            one(Value::row(dsp::interp1(&x0, &y0, &xq)))
        }
        "fft" => {
            let x = arg(&argv, 0)?.to_complex_vec()?;
            one(Value::crow(dsp::fft(&x)))
        }
        "ifft" => {
            let x = arg(&argv, 0)?.to_complex_vec()?;
            one(Value::crow(dsp::ifft(&x)))
        }
        "real" => {
            let x = arg(&argv, 0)?.to_complex_vec()?;
            one(Value::row(x.iter().map(|z| z.re).collect()))
        }
        "imag" => {
            let x = arg(&argv, 0)?.to_complex_vec()?;
            one(Value::row(x.iter().map(|z| z.im).collect()))
        }
        "conj" => {
            let x = arg(&argv, 0)?.to_complex_vec()?;
            one(Value::crow(x.iter().map(|z| z.conj()).collect()))
        }
        "abscorr" => {
            // DasLib extension: |cos θ| of two windows or spectra.
            let a = arg(&argv, 0)?;
            let b = arg(&argv, 1)?;
            let complex = matches!(a, Value::CMatrix { .. }) || matches!(b, Value::CMatrix { .. });
            let v = if complex {
                dsp::abscorr_complex(&a.to_complex_vec()?, &b.to_complex_vec()?)
            } else {
                dsp::abscorr(&a.to_real_vec()?, &b.to_real_vec()?)
            };
            one(Value::Num(v))
        }
        "envelope" => {
            let x = arg(&argv, 0)?;
            one(Value::reshape_like(dsp::envelope(&x.to_real_vec()?), x))
        }
        "whiten" => {
            let x = arg(&argv, 0)?;
            let lo = arg(&argv, 1)?.as_scalar()?;
            let hi = arg(&argv, 2)?.as_scalar()?;
            if !((0.0..1.0).contains(&lo) && lo < hi && hi <= 1.0) {
                return Err(format!(
                    "whiten: band LO..HI must satisfy 0 <= LO < HI <= 1 (fractions of Nyquist), \
                     got LO = {lo}, HI = {hi}"
                ));
            }
            one(Value::reshape_like(
                dsp::whiten(&x.to_real_vec()?, lo, hi, (lo / 2.0).max(1e-3)),
                x,
            ))
        }
        "onebit" => {
            let x = arg(&argv, 0)?;
            one(Value::reshape_like(dsp::one_bit(&x.to_real_vec()?), x))
        }
        "hann" => {
            let n = arg(&argv, 0)?.as_scalar()? as usize;
            one(Value::row(dsp::hann(n)))
        }
        "std" => {
            let v = arg(&argv, 0)?.to_real_vec()?;
            if v.is_empty() {
                return Err("std of empty array".into());
            }
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                / (v.len().max(2) - 1) as f64;
            one(Value::Num(var.sqrt()))
        }
        "var" => {
            let v = arg(&argv, 0)?.to_real_vec()?;
            if v.is_empty() {
                return Err("var of empty array".into());
            }
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                / (v.len().max(2) - 1) as f64;
            one(Value::Num(var))
        }
        "sort" => {
            let mut v = arg(&argv, 0)?.to_real_vec()?;
            v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            one(Value::reshape_like(v, arg(&argv, 0)?))
        }
        "find" => {
            // 1-based indices of non-zero elements (MATLAB semantics).
            let v = arg(&argv, 0)?.to_real_vec()?;
            one(Value::row(
                v.iter()
                    .enumerate()
                    .filter(|(_, &x)| x != 0.0)
                    .map(|(i, _)| (i + 1) as f64)
                    .collect(),
            ))
        }
        "xcorr" => {
            let a = arg(&argv, 0)?.to_real_vec()?;
            let b = arg(&argv, 1)?.to_real_vec()?;
            one(Value::row(dsp::xcorr_fft(&a, &b, dsp::CorrMode::Full)))
        }
        // ---- misc -------------------------------------------------------------
        "disp" => {
            let v = arg(&argv, 0)?;
            let line = match v {
                Value::Str(s) => s.clone(),
                Value::Num(x) => format!("{x}"),
                other => format!("{:?}x{:?} array", other.shape().0, other.shape().1),
            };
            interp.output.push_str(&line);
            interp.output.push('\n');
            Ok(vec![])
        }
        "pi" => one(Value::Num(std::f64::consts::PI)),
        other => Err(format!("undefined variable or function {other:?}")),
    }
}

fn arg(argv: &[Value], i: usize) -> Result<&Value, String> {
    argv.get(i)
        .ok_or_else(|| format!("missing argument {}", i + 1))
}

fn dims_from_args(argv: &[Value]) -> Result<(usize, usize), String> {
    match argv.len() {
        1 => {
            let n = argv[0].as_scalar()? as usize;
            Ok((n, n))
        }
        2 => Ok((argv[0].as_scalar()? as usize, argv[1].as_scalar()? as usize)),
        n => Err(format!("expected 1 or 2 size arguments, got {n}")),
    }
}

fn map_real(v: &Value, f: impl Fn(f64) -> f64) -> Result<Value, String> {
    let data: Vec<f64> = v.to_real_vec()?.into_iter().map(f).collect();
    Ok(Value::reshape_like(data, v))
}

#[cfg(test)]
mod tests {
    use crate::Interp;

    fn run(src: &str) -> Interp {
        let mut i = Interp::new();
        i.run(src).unwrap_or_else(|e| panic!("{e} in {src}"));
        i
    }

    #[test]
    fn zeros_ones_shapes() {
        let i = run("a = zeros(2, 3); b = ones(2); n = numel(a); m = sum(b(:));");
        assert_eq!(i.get_scalar("n"), Some(6.0));
        assert_eq!(i.get_scalar("m"), Some(4.0));
    }

    #[test]
    fn size_and_length() {
        let i = run("m = zeros(3, 5); r = size(m, 1); c = size(m, 2); l = length(m);");
        assert_eq!(i.get_scalar("r"), Some(3.0));
        assert_eq!(i.get_scalar("c"), Some(5.0));
        assert_eq!(i.get_scalar("l"), Some(5.0));
    }

    #[test]
    fn reductions() {
        let i = run("v = [3 1 4 1 5]; s = sum(v); m = mean(v); hi = max(v); lo = min(v);");
        assert_eq!(i.get_scalar("s"), Some(14.0));
        assert_eq!(i.get_scalar("m"), Some(2.8));
        assert_eq!(i.get_scalar("hi"), Some(5.0));
        assert_eq!(i.get_scalar("lo"), Some(1.0));
    }

    #[test]
    fn elementwise_max_binary() {
        let i = run("m = max([1 5 2], 3);");
        assert_eq!(i.get("m"), Some(&crate::Value::row(vec![3.0, 5.0, 3.0])));
    }

    #[test]
    fn detrend_matches_dsp() {
        let i = run("y = detrend([1 2 3 4 5]); e = max(abs(y));");
        assert!(i.get_scalar("e").unwrap() < 1e-12);
        let i = run("y = detrend([5 5 5 5], 'constant'); e = max(abs(y));");
        assert!(i.get_scalar("e").unwrap() < 1e-12);
    }

    #[test]
    fn butter_filtfilt_pipeline() {
        let i = run("[b, a] = butter(2, 0.4);\n\
             x = sin(0.1 * (1:200));\n\
             y = filtfilt(b, a, x);\n\
             n = length(y);");
        assert_eq!(i.get_scalar("n"), Some(200.0));
    }

    #[test]
    fn butter_bandpass_via_matrix_arg() {
        let i = run("[b, a] = butter(3, [0.1 0.5]); n = length(a);");
        assert_eq!(i.get_scalar("n"), Some(7.0), "bandpass doubles the order");
    }

    #[test]
    fn fft_roundtrip_and_abs() {
        let i = run("x = [1 2 3 4];\n\
             s = fft(x);\n\
             back = real(ifft(s));\n\
             err = max(abs(back - x));");
        assert!(i.get_scalar("err").unwrap() < 1e-12);
    }

    #[test]
    fn abscorr_real_and_complex() {
        let i = run("a = [1 2 3]; c1 = abscorr(a, a);\n\
             s = fft([1 0 0 0]); c2 = abscorr(s, s);");
        assert!((i.get_scalar("c1").unwrap() - 1.0).abs() < 1e-12);
        assert!((i.get_scalar("c2").unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn resample_and_interp1() {
        let i = run("x = 0:99;\n\
             y = resample(x, 1, 2);\n\
             n = length(y);\n\
             v = interp1([0 1], [0 10], [0.5]);");
        assert_eq!(i.get_scalar("n"), Some(50.0));
        assert_eq!(i.get_scalar("v"), Some(5.0));
    }

    #[test]
    fn disp_captures_output() {
        let i = run("disp('hello das');");
        assert_eq!(i.output, "hello das\n");
    }

    #[test]
    fn unknown_builtin_errors() {
        let mut i = Interp::new();
        assert!(i.run("x = frobnicate(1);").is_err());
    }
}
