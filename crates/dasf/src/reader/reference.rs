//! The contiguous-layout read bodies as they were before the unit walk,
//! kept as the bit-exact reference the equivalence tests compare
//! [`File::read_into`] / [`File::read_hyperslab_into`] against: whole
//! reads stage the entire payload, hyperslabs decode the whole
//! first..last unit span of the selection's bounding range into one raw
//! window (`decode_window`) or verify that range and then seek per run,
//! and every element goes bytes → staging → `decode_into`. Only the
//! metrics and the per-handle verified bitmap are gone: the reference
//! re-verifies on every call.

use super::*;
use crate::element::decode_into;

impl File {
    fn reference_sums<'a>(&self, meta: &'a DatasetMeta) -> Option<&'a [u32]> {
        (self.version != Version::V2).then_some(&meta.checksums[..])
    }

    fn reference_mismatch(&self, dataset: &str, chunk: usize) -> DasfError {
        DasfError::ChecksumMismatch {
            path: self.path.display().to_string(),
            dataset: dataset.to_string(),
            chunk,
        }
    }

    /// Read, verify, and decode stored units `first..=last` of a
    /// compressed contiguous dataset into one raw buffer.
    fn decode_window(
        &self,
        dataset: &str,
        meta: &DatasetMeta,
        first: usize,
        last: usize,
    ) -> Result<Vec<u8>> {
        let stored_len = |units: &[crate::UnitHeader]| -> u64 {
            units.iter().map(|u| u.stored_len as u64).sum()
        };
        let span_off = stored_len(&meta.stored_units[..first]);
        let span_len = stored_len(&meta.stored_units[first..=last]);
        let mut stored = vec![0u8; span_len as usize];
        self.read_at(meta.data_offset + span_off, &mut stored)?;
        let mut raw = Vec::new();
        let mut off = 0usize;
        for (unit, u) in meta.stored_units[first..=last].iter().enumerate() {
            let s = &stored[off..off + u.stored_len as usize];
            if let Some(sums) = self.reference_sums(meta) {
                if crc32c(s) != sums[first + unit] {
                    return Err(self.reference_mismatch(dataset, first + unit));
                }
            }
            codec::reference::decode_unit(u.codec, s, u.raw_len as usize, meta.dtype, &mut raw)?;
            off += u.stored_len as usize;
        }
        Ok(raw)
    }

    /// Verify the units covering payload byte range `[lo, hi)` of an
    /// uncompressed contiguous dataset, reading each from disk.
    fn verify_contiguous_range(
        &self,
        dataset: &str,
        meta: &DatasetMeta,
        lo: u64,
        hi: u64,
    ) -> Result<()> {
        let Some(sums) = self.reference_sums(meta) else {
            return Ok(());
        };
        let first = (lo / VERIFY_CHUNK_BYTES) as usize;
        let last = ((hi - 1) / VERIFY_CHUNK_BYTES) as usize;
        for (unit, &sum) in sums.iter().enumerate().take(last + 1).skip(first) {
            let (start, len) = meta.unit_range(unit);
            let mut buf = vec![0u8; len as usize];
            self.read_at(meta.data_offset + start, &mut buf)?;
            if crc32c(&buf) != sum {
                return Err(self.reference_mismatch(dataset, unit));
            }
        }
        Ok(())
    }

    /// Verify every unit of an uncompressed contiguous dataset against
    /// its full payload already in memory.
    fn verify_contiguous_buffer(
        &self,
        dataset: &str,
        meta: &DatasetMeta,
        payload: &[u8],
    ) -> Result<()> {
        let Some(sums) = self.reference_sums(meta) else {
            return Ok(());
        };
        for (unit, &sum) in sums.iter().enumerate() {
            let (start, len) = meta.unit_range(unit);
            if crc32c(&payload[start as usize..(start + len) as usize]) != sum {
                return Err(self.reference_mismatch(dataset, unit));
            }
        }
        Ok(())
    }

    /// The old `read_into` for contiguous layout.
    pub(crate) fn reference_read_into<T: Element>(
        &self,
        path: &str,
        out: &mut Vec<T>,
    ) -> Result<usize> {
        let meta = self.table.dataset(path)?;
        assert_eq!(meta.dtype, T::DTYPE);
        assert_eq!(meta.layout, Layout::Contiguous);
        let n = meta.len();
        if meta.is_compressed() {
            let raw = self.decode_window(path, meta, 0, meta.stored_units.len() - 1)?;
            decode_into(&raw, n, out);
            return Ok(n);
        }
        let mut bytes = vec![0u8; n * meta.dtype.size()];
        self.read_at(meta.data_offset, &mut bytes)?;
        self.verify_contiguous_buffer(path, meta, &bytes)?;
        decode_into(&bytes, n, out);
        Ok(n)
    }

    /// The old `read_hyperslab_into` for contiguous layout (selection
    /// already bounds-checked and non-empty).
    pub(crate) fn reference_read_hyperslab_into<T: Element>(
        &self,
        path: &str,
        selection: &[(u64, u64)],
        out: &mut Vec<T>,
    ) -> Result<usize> {
        let meta = self.table.dataset(path)?;
        assert_eq!(meta.dtype, T::DTYPE);
        assert_eq!(meta.layout, Layout::Contiguous);
        let total: u64 = selection.iter().map(|&(_, c)| c).product();
        assert!(total > 0 && selection.len() == meta.dims.len());

        // Row-major strides (in elements) of the full dataset.
        let ndim = meta.dims.len();
        let mut strides = vec![1u64; ndim];
        for d in (0..ndim.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * meta.dims[d + 1];
        }

        let elem = meta.dtype.size() as u64;
        // Bounding byte range of the selection: every byte a run below
        // touches lies inside it.
        let mut lo_elem = 0u64;
        let mut hi_elem = 0u64;
        for d in 0..ndim {
            lo_elem += selection[d].0 * strides[d];
            hi_elem += (selection[d].0 + selection[d].1 - 1) * strides[d];
        }
        let (lo_byte, hi_byte) = (lo_elem * elem, (hi_elem + 1) * elem);
        let window = if meta.is_compressed() {
            let first = (lo_byte / VERIFY_CHUNK_BYTES) as usize;
            let last = ((hi_byte - 1) / VERIFY_CHUNK_BYTES) as usize;
            let raw = self.decode_window(path, meta, first, last)?;
            Some((raw, first as u64 * VERIFY_CHUNK_BYTES))
        } else {
            self.verify_contiguous_range(path, meta, lo_byte, hi_byte)?;
            None
        };

        let run_len = selection[ndim - 1].1; // contiguous elements per run
        let mut out_bytes = Vec::with_capacity((total * elem) as usize);

        // Odometer over all dims except the innermost.
        let mut idx = vec![0u64; ndim.saturating_sub(1)];
        loop {
            let mut elem_offset = selection[ndim - 1].0; // innermost offset
            for d in 0..ndim - 1 {
                elem_offset += (selection[d].0 + idx[d]) * strides[d];
            }
            let start = out_bytes.len();
            out_bytes.resize(start + (run_len * elem) as usize, 0);
            match &window {
                Some((raw, base)) => {
                    let off = (elem_offset * elem - base) as usize;
                    let run_bytes = (run_len * elem) as usize;
                    out_bytes[start..].copy_from_slice(&raw[off..off + run_bytes]);
                }
                None => self.read_at(
                    meta.data_offset + elem_offset * elem,
                    &mut out_bytes[start..],
                )?,
            }

            // Advance the odometer.
            let mut d = ndim.saturating_sub(1);
            loop {
                if d == 0 {
                    decode_into(&out_bytes, total as usize, out);
                    return Ok(total as usize);
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < selection[d].1 {
                    break;
                }
                idx[d] = 0;
            }
        }
    }
}
