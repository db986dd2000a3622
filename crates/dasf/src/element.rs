//! Dataset element types.

/// Element type of a stored dataset, like an HDF5 datatype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Dtype {
    F32 = 1,
    F64 = 2,
    I16 = 3,
    I32 = 4,
    I64 = 5,
    U8 = 6,
}

impl Dtype {
    /// Size of one element in bytes.
    pub fn size(self) -> usize {
        match self {
            Dtype::F32 | Dtype::I32 => 4,
            Dtype::F64 | Dtype::I64 => 8,
            Dtype::I16 => 2,
            Dtype::U8 => 1,
        }
    }

    /// Human-readable name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
            Dtype::I16 => "i16",
            Dtype::I32 => "i32",
            Dtype::I64 => "i64",
            Dtype::U8 => "u8",
        }
    }

    pub(crate) fn from_code(code: u8) -> Option<Dtype> {
        Some(match code {
            1 => Dtype::F32,
            2 => Dtype::F64,
            3 => Dtype::I16,
            4 => Dtype::I32,
            5 => Dtype::I64,
            6 => Dtype::U8,
            _ => return None,
        })
    }
}

/// Rust types storable as dataset elements.
///
/// # Safety-free design
/// Conversion goes through explicit little-endian byte codecs rather than
/// transmutes, so the format is portable across endianness.
pub trait Element: Copy + Default + Send + Sync + 'static {
    /// The on-disk dtype tag for this Rust type.
    const DTYPE: Dtype;

    /// Append this value's little-endian bytes to `out`.
    fn write_le(self, out: &mut Vec<u8>);

    /// Decode one value from the start of `bytes`.
    fn read_le(bytes: &[u8]) -> Self;

    /// Write this value's little-endian bytes to the start of `out` —
    /// the mirror of [`Element::read_le`].
    fn put_le(self, out: &mut [u8]);
}

macro_rules! impl_element {
    ($t:ty, $dtype:expr) => {
        impl Element for $t {
            const DTYPE: Dtype = $dtype;

            #[inline]
            fn write_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            // Reads are generic over `T` and so instantiated in the
            // calling crate; without the hint this is an opaque call
            // per element there.
            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                let mut buf = [0u8; std::mem::size_of::<$t>()];
                buf.copy_from_slice(&bytes[..std::mem::size_of::<$t>()]);
                <$t>::from_le_bytes(buf)
            }

            // The writer scatters elements into byte planes one at a
            // time; same reason as above.
            #[inline]
            fn put_le(self, out: &mut [u8]) {
                out[..std::mem::size_of::<$t>()].copy_from_slice(&self.to_le_bytes());
            }
        }
    };
}

impl_element!(f32, Dtype::F32);
impl_element!(f64, Dtype::F64);
impl_element!(i16, Dtype::I16);
impl_element!(i32, Dtype::I32);
impl_element!(i64, Dtype::I64);
impl_element!(u8, Dtype::U8);

/// Encode a slice to little-endian bytes.
pub(crate) fn encode_slice<T: Element>(data: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * T::DTYPE.size());
    for &v in data {
        v.write_le(&mut out);
    }
    out
}

/// Decode `n` values from little-endian bytes.
#[cfg(test)]
pub(crate) fn decode_slice<T: Element>(bytes: &[u8], n: usize) -> Vec<T> {
    let mut out = Vec::new();
    decode_into(bytes, n, &mut out);
    out
}

/// Decode `n` values from little-endian bytes into `out` (cleared
/// first). The reader's reference implementation still stages raw bytes
/// and decodes them in bulk; reads proper go through `codec::Unit`.
#[cfg(test)]
pub(crate) fn decode_into<T: Element>(bytes: &[u8], n: usize, out: &mut Vec<T>) {
    let sz = T::DTYPE.size();
    debug_assert!(bytes.len() >= n * sz);
    out.clear();
    out.reserve(n);
    out.extend((0..n).map(|i| T::read_le(&bytes[i * sz..])));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_round_trip_codes() {
        for d in [
            Dtype::F32,
            Dtype::F64,
            Dtype::I16,
            Dtype::I32,
            Dtype::I64,
            Dtype::U8,
        ] {
            assert_eq!(Dtype::from_code(d as u8), Some(d));
        }
        assert_eq!(Dtype::from_code(0), None);
        assert_eq!(Dtype::from_code(99), None);
    }

    #[test]
    fn element_round_trip() {
        let vals = [-1.5f32, 0.0, 3.25e7];
        let bytes = encode_slice(&vals);
        assert_eq!(bytes.len(), 12);
        let back: Vec<f32> = decode_slice(&bytes, 3);
        assert_eq!(back, vals);
    }

    #[test]
    fn put_le_mirrors_read_le() {
        fn check<T: Element + PartialEq + std::fmt::Debug>(v: T) {
            let mut buf = [0xEEu8; 9];
            v.put_le(&mut buf);
            assert_eq!(T::read_le(&buf), v);
            let mut pushed = Vec::new();
            v.write_le(&mut pushed);
            assert_eq!(buf[..pushed.len()], pushed[..]);
            assert!(buf[pushed.len()..].iter().all(|&b| b == 0xEE));
        }
        check(-1.5f32);
        check(f64::MIN_POSITIVE);
        check(i16::MIN);
        check(-123_456_789i32);
        check(i64::MAX - 7);
        check(0xA5u8);
    }

    #[test]
    fn i16_round_trip() {
        let vals = [i16::MIN, -1, 0, 1, i16::MAX];
        let back: Vec<i16> = decode_slice(&encode_slice(&vals), vals.len());
        assert_eq!(back, vals);
    }
}
