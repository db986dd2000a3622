//! Typed attribute values (the key-value metadata model of Figure 4).

use crate::error::DasfError;
use crate::Result;

/// An attribute value attached to a group or dataset.
///
/// Matches the metadata the paper's Figure 4 stores per file and per
/// channel: sampling frequency, spatial resolution, timestamps, counts.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// UTF-8 string, e.g. `TimeStamp(yymmddhhmmss): 170620100545`.
    Str(String),
    /// Signed integer, e.g. `Number of objects: 11648`.
    Int(i64),
    /// Floating point, e.g. `SpatialResolution(m): 2.0`.
    Float(f64),
    /// Integer vector.
    IntVec(Vec<i64>),
    /// Float vector.
    FloatVec(Vec<f64>),
}

const TAG_STR: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_INT_VEC: u8 = 4;
const TAG_FLOAT_VEC: u8 = 5;

impl Value {
    /// Integer accessor; `None` for other variants.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float accessor; integers convert losslessly.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Str(s) => {
                out.push(TAG_STR);
                put_string(out, s);
            }
            Value::Int(v) => {
                out.push(TAG_INT);
                out.extend(v.to_le_bytes());
            }
            Value::Float(v) => {
                out.push(TAG_FLOAT);
                out.extend(v.to_le_bytes());
            }
            Value::IntVec(v) => {
                out.push(TAG_INT_VEC);
                out.extend((v.len() as u32).to_le_bytes());
                for x in v {
                    out.extend(x.to_le_bytes());
                }
            }
            Value::FloatVec(v) => {
                out.push(TAG_FLOAT_VEC);
                out.extend((v.len() as u32).to_le_bytes());
                for x in v {
                    out.extend(x.to_le_bytes());
                }
            }
        }
    }

    pub(crate) fn decode(buf: &mut &[u8]) -> Result<Value> {
        if buf.is_empty() {
            return Err(DasfError::Truncated);
        }
        let tag = get_u8(buf);
        Ok(match tag {
            TAG_STR => Value::Str(get_string(buf)?),
            TAG_INT => {
                check_len(buf, 8)?;
                Value::Int(get_i64(buf))
            }
            TAG_FLOAT => {
                check_len(buf, 8)?;
                Value::Float(get_f64(buf))
            }
            TAG_INT_VEC => {
                check_len(buf, 4)?;
                let n = get_u32(buf) as usize;
                check_len(buf, n * 8)?;
                Value::IntVec((0..n).map(|_| get_i64(buf)).collect())
            }
            TAG_FLOAT_VEC => {
                check_len(buf, 4)?;
                let n = get_u32(buf) as usize;
                check_len(buf, n * 8)?;
                Value::FloatVec((0..n).map(|_| get_f64(buf)).collect())
            }
            other => return Err(DasfError::Corrupt(format!("unknown value tag {other}"))),
        })
    }
}

/// The next `N` bytes of `buf`, which moves past them. Panics when fewer
/// are left: every decoder checks the length first ([`check_len`]), so
/// decoding stays total.
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf.split_at(N);
    *buf = rest;
    head.try_into().expect("split_at(N) leaves N bytes")
}

pub(crate) fn get_u8(buf: &mut &[u8]) -> u8 {
    u8::from_le_bytes(take(buf))
}

pub(crate) fn get_u32(buf: &mut &[u8]) -> u32 {
    u32::from_le_bytes(take(buf))
}

pub(crate) fn get_u64(buf: &mut &[u8]) -> u64 {
    u64::from_le_bytes(take(buf))
}

fn get_i64(buf: &mut &[u8]) -> i64 {
    i64::from_le_bytes(take(buf))
}

pub(crate) fn get_f64(buf: &mut &[u8]) -> f64 {
    f64::from_le_bytes(take(buf))
}

pub(crate) fn check_len(buf: &&[u8], need: usize) -> Result<()> {
    if buf.len() < need {
        Err(DasfError::Truncated)
    } else {
        Ok(())
    }
}

pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend((s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_string(buf: &mut &[u8]) -> Result<String> {
    check_len(buf, 4)?;
    let n = get_u32(buf) as usize;
    check_len(buf, n)?;
    let (bytes, rest) = buf.split_at(n);
    *buf = rest;
    String::from_utf8(bytes.to_vec()).map_err(|_| DasfError::Corrupt("invalid UTF-8 string".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Value) {
        let mut out = Vec::new();
        v.encode(&mut out);
        let mut slice = out.as_slice();
        let back = Value::decode(&mut slice).unwrap();
        assert_eq!(back, v);
        assert!(
            slice.is_empty(),
            "decode must consume exactly what encode wrote"
        );
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(Value::Str("hello DAS".into()));
        round_trip(Value::Str(String::new()));
        round_trip(Value::Int(-42));
        round_trip(Value::Float(3.75));
        round_trip(Value::IntVec(vec![1, -2, 3]));
        round_trip(Value::FloatVec(vec![0.5, -0.25]));
        round_trip(Value::IntVec(vec![]));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_float(), Some(5.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Float(2.5).as_int(), None);
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Str("x".into()).as_int(), None);
    }

    #[test]
    fn truncated_decode_fails() {
        let mut out = Vec::new();
        Value::Int(7).encode(&mut out);
        let mut short = &out[..out.len() - 1];
        assert!(matches!(
            Value::decode(&mut short),
            Err(DasfError::Truncated)
        ));
    }

    /// The readers take little-endian words in the order the encoders
    /// wrote them, and leave the input just past them.
    #[test]
    fn round_trip_all_widths() {
        let mut out = vec![7u8];
        out.extend(0xDEAD_BEEFu32.to_le_bytes());
        out.extend((u64::MAX - 1).to_le_bytes());
        out.extend((-42i64).to_le_bytes());
        out.extend(std::f64::consts::PI.to_le_bytes());
        let mut buf = out.as_slice();
        assert_eq!(get_u8(&mut buf), 7);
        assert_eq!(get_u32(&mut buf), 0xDEAD_BEEF);
        assert_eq!(get_u64(&mut buf), u64::MAX - 1);
        assert_eq!(get_i64(&mut buf), -42);
        assert_eq!(get_f64(&mut buf), std::f64::consts::PI);
        assert!(buf.is_empty());
    }

    /// A reader never reads past the input: decoders check the length
    /// first, and a reader called without that check panics.
    #[test]
    #[should_panic]
    fn underflow_panics() {
        let mut buf: &[u8] = &[1, 2];
        let _ = get_u32(&mut buf);
    }

    #[test]
    fn unknown_tag_fails() {
        let bytes = [99u8, 0, 0, 0];
        let mut slice = &bytes[..];
        assert!(matches!(
            Value::decode(&mut slice),
            Err(DasfError::Corrupt(_))
        ));
    }
}
