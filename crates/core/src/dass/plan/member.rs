//! How a member file becomes samples: one open, one shape check, one
//! pooled block.
//!
//! Every read of a member's samples goes through this module. The
//! serial executor and ingest's window read decode in place
//! ([`read_member_into`]); the distributed executor's owner rank and
//! `dassd`'s chunk cache read the whole dataset into a pooled
//! [`Member`] ([`read_member`]). Both open the file the same way, which
//! requires a 2-D dataset, and every caller holds the member to the
//! [`ReadOp`] it planned with [`check_holds`] before it uses a sample —
//! the executor before a unit is decoded, `dassd`, whose cached member
//! serves many requests, per request. So a member rewritten at another
//! shape since the corpus was scanned is one typed
//! [`DassaError::Inconsistent`] wherever it is read: a serial region
//! read, a `--ranks` read (where the owner's error rides in the exchange
//! like any unreadable member's), a served request.

use super::ReadOp;
use crate::{DassaError, Result};
use arrayudf::Array2;
use dasf::{File, PooledBuf};
use std::path::Path;

/// One member file's whole `rows × cols` dataset in a pooled buffer:
/// the granule of `dassd`'s chunk cache and of the distributed
/// executor's [`Tile`](super::Tile)s.
pub struct Member {
    rows: usize,
    cols: usize,
    stored_bytes: u64,
    data: PooledBuf<f32>,
}

impl std::fmt::Debug for Member {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Member")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .finish_non_exhaustive()
    }
}

impl Member {
    /// Height (channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Width (samples).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major samples, `rows * cols` long.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Payload size in bytes (decoded — what the cache charges
    /// residency at).
    pub fn bytes(&self) -> u64 {
        (self.rows * self.cols * std::mem::size_of::<f32>()) as u64
    }

    /// On-disk footprint of the dataset this block was decoded from;
    /// equals [`Member::bytes`] for uncompressed files.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// The hyperslab `sel` (`[(row0, nrows), (col0, ncols)]` in the
    /// file's local coordinates), or the whole block when `sel` is
    /// `None`, as borrowed row slices — the same contract as `dasf`'s
    /// `read_hyperslab_into` / `read_into` pair, so bytes served from
    /// these rows match a direct disk read.
    pub fn slab_rows(
        &self,
        sel: Option<[(u64, u64); 2]>,
    ) -> impl ExactSizeIterator<Item = &[f32]> + Clone {
        let [(r0, nr), (c0, nc)] = sel.unwrap_or([(0, self.rows as u64), (0, self.cols as u64)]);
        let (r0, nr, c0, nc) = (r0 as usize, nr as usize, c0 as usize, nc as usize);
        self.data[r0 * self.cols..(r0 + nr) * self.cols]
            .chunks_exact(self.cols.max(1))
            .map(move |row| &row[c0..c0 + nc])
    }

    /// [`Member::slab_rows`] copied out into one row-major `Vec`.
    pub fn hyperslab(&self, sel: Option<[(u64, u64); 2]>) -> Vec<f32> {
        let rows = self.slab_rows(sel);
        let mut out = Vec::with_capacity(rows.clone().map(<[f32]>::len).sum());
        for row in rows {
            out.extend_from_slice(row);
        }
        out
    }
}

/// Open `path` and require its `dataset` to be 2-D: the file and the
/// dataset's `(rows, cols)`.
fn open(path: &Path, dataset: &str) -> Result<(File, (usize, usize))> {
    let f = File::open(path)?;
    let dims = &f.dataset(dataset)?.dims;
    let &[rows, cols] = &dims[..] else {
        return Err(DassaError::Inconsistent(format!(
            "{}: expected a 2-D dataset at {dataset}, got {} dims",
            path.display(),
            dims.len()
        )));
    };
    Ok((f, (rows as usize, cols as usize)))
}

/// Whether a member whose dataset is now `rows × cols` still holds
/// `op`: a whole op must match exactly, a selection must fit inside.
/// Otherwise a typed `Inconsistent` naming the file, its current shape
/// and what was planned.
pub(crate) fn check_holds(op: &ReadOp, (rows, cols): (usize, usize)) -> Result<()> {
    let (r, c) = (rows as u64, cols as u64);
    let planned = match op.selection {
        None if (rows, cols) == (op.rows, op.cols) => return Ok(()),
        Some([(r0, nr), (c0, nc)]) if r0.saturating_add(nr) <= r && c0.saturating_add(nc) <= c => {
            return Ok(())
        }
        None => format!("the whole {} x {} dataset", op.rows, op.cols),
        Some([(r0, nr), (c0, nc)]) => format!(
            "the selection of rows {r0}..{} and columns {c0}..{}",
            r0 + nr,
            c0 + nc
        ),
    };
    Err(DassaError::Inconsistent(format!(
        "{}: now {rows} x {cols}, which does not hold {planned} planned when the corpus was \
         scanned",
        op.path.display()
    )))
}

/// Read the member at `path` whole: its 2-D `dataset`, verified and
/// decoded into a pooled buffer. A caller that planned an op on it
/// passes it as `planned`, and the member is held to it by
/// [`check_holds`] before a unit is decoded.
pub(crate) fn read_member(path: &Path, dataset: &str, planned: Option<&ReadOp>) -> Result<Member> {
    let (f, (rows, cols)) = open(path, dataset)?;
    if let Some(op) = planned {
        check_holds(op, (rows, cols))?;
    }
    let stored_bytes = f.dataset(dataset)?.stored_byte_len();
    let mut data = super::pool::f32s().acquire(rows * cols);
    f.read_into(dataset, &mut data)?;
    Ok(Member {
        rows,
        cols,
        stored_bytes,
        data,
    })
}

/// Read `op` — its selection, or the whole dataset — into the zeroed
/// rectangle of `out` at `(0, op.t0)`, decoded in place by
/// [`dasf::File::read_hyperslab_strided`], once [`check_holds`] has
/// passed. A read that fails part way has already written rows, so on
/// `Err` the rectangle is zeroed again: the block is all there or all
/// zero, which is what retries, the quarantine and ingest's gaps are
/// defined on.
pub(crate) fn read_member_into(op: &ReadOp, dataset: &str, out: &mut Array2<f32>) -> Result<()> {
    let (rows, cols, t0) = (op.rows, op.cols, op.t0);
    assert!(
        rows <= out.rows() && t0 + cols <= out.cols(),
        "block {rows}x{cols} does not fit at column {t0} of {}x{}",
        out.rows(),
        out.cols()
    );
    let (f, dims) = open(&op.path, dataset)?;
    check_holds(op, dims)?;
    let stride = out.cols();
    let selection = op.selection.unwrap_or([(0, rows as u64), (0, cols as u64)]);
    let read = f.read_hyperslab_strided(dataset, &selection, out.as_mut_slice(), t0, stride);
    if read.is_err() {
        for row in out.as_mut_slice().chunks_mut(stride).take(rows) {
            row[t0..t0 + cols].fill(0.0);
        }
    }
    read?;
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A member over `rows × cols` samples already in memory.
    pub(crate) fn member_of(rows: usize, cols: usize, data: PooledBuf<f32>) -> Member {
        assert_eq!(data.len(), rows * cols);
        let stored_bytes = (data.len() * std::mem::size_of::<f32>()) as u64;
        Member {
            rows,
            cols,
            stored_bytes,
            data,
        }
    }
}
