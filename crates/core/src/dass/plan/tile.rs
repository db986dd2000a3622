//! Zero-copy tiles: the unit of data the I/O executor moves.
//!
//! A [`Tile`] is a row range of one member file's `channel × time`
//! block, backed by a shared pooled buffer. Restricting a tile to a
//! destination's channel rows is an `Arc` bump plus a range — no pack
//! copy — and sending it through a `minimpi` collective moves the
//! handle while the byte counters account for the sample bytes the
//! handle references (see [`minimpi::WirePayload`]), so communication
//! statistics stay identical to the old deep-copy exchange.

use arrayudf::TileView;
use dasf::PooledBuf;
use std::ops::Range;
use std::sync::Arc;

/// A view of `rows` channel rows of one member file's data, destined
/// for global column offset `t0`.
#[derive(Clone, Debug)]
pub struct Tile {
    buf: Arc<PooledBuf<f32>>,
    /// Rows of the full backing buffer (the file's channel count).
    buf_rows: usize,
    /// Columns of the backing buffer (the file's sample count).
    buf_cols: usize,
    /// The channel rows this tile covers, in buffer coordinates.
    rows: Range<usize>,
    /// Index of the member file this tile came from.
    file_index: usize,
    /// Global column (time) offset where this tile lands.
    t0: usize,
}

impl Tile {
    /// Wrap a freshly read `buf_rows × buf_cols` buffer as a whole-file
    /// tile.
    ///
    /// # Panics
    /// Panics when `buf.len() != buf_rows * buf_cols`.
    pub fn whole(
        buf: PooledBuf<f32>,
        buf_rows: usize,
        buf_cols: usize,
        file_index: usize,
        t0: usize,
    ) -> Tile {
        assert_eq!(
            buf.len(),
            buf_rows * buf_cols,
            "tile buffer length does not match {buf_rows}x{buf_cols}"
        );
        Tile {
            buf: Arc::new(buf),
            buf_rows,
            buf_cols,
            rows: 0..buf_rows,
            file_index,
            t0,
        }
    }

    /// The same backing buffer restricted to `rows` (buffer
    /// coordinates) — an `Arc` clone, no copy.
    ///
    /// # Panics
    /// Panics when `rows` is not contained in this tile's row range.
    pub fn restrict(&self, rows: Range<usize>) -> Tile {
        assert!(
            rows.start >= self.rows.start && rows.end <= self.rows.end,
            "row restriction {rows:?} outside tile rows {:?}",
            self.rows
        );
        Tile {
            buf: Arc::clone(&self.buf),
            buf_rows: self.buf_rows,
            buf_cols: self.buf_cols,
            rows,
            file_index: self.file_index,
            t0: self.t0,
        }
    }

    /// Number of rows in the tile.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns in the tile (the member file's sample count).
    pub fn cols(&self) -> usize {
        self.buf_cols
    }

    /// Index of the member file this tile came from.
    pub fn file_index(&self) -> usize {
        self.file_index
    }

    /// Global column offset where this tile lands.
    pub fn t0(&self) -> usize {
        self.t0
    }

    /// Borrow the tile's samples as a (possibly strided) 2-D view,
    /// ready for [`arrayudf::Array2::paste`].
    pub fn view(&self) -> TileView<'_, f32> {
        let data = &self.buf[self.rows.start * self.buf_cols..self.rows.end * self.buf_cols];
        TileView::with_stride(self.rows.len(), self.buf_cols, self.buf_cols, data)
    }
}

/// Collectives moving tiles count the referenced sample bytes, exactly
/// what shipping the rows as a packed `Vec<f32>` would have counted.
impl minimpi::WirePayload for Tile {
    fn wire_bytes(&self) -> usize {
        self.rows.len() * self.buf_cols * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrayudf::Array2;
    use minimpi::WirePayload;

    fn sample_tile(rows: usize, cols: usize) -> Tile {
        let mut buf = dasf::pool::f32s().acquire(rows * cols);
        buf.extend((0..rows * cols).map(|i| i as f32));
        Tile::whole(buf, rows, cols, 3, 7)
    }

    #[test]
    fn restrict_is_zero_copy_and_counts_referenced_bytes() {
        let tile = sample_tile(6, 5);
        assert_eq!(tile.wire_bytes(), 6 * 5 * 4);
        let sub = tile.restrict(2..4);
        assert_eq!(sub.wire_bytes(), 2 * 5 * 4);
        assert_eq!(sub.file_index(), 3);
        assert_eq!(sub.t0(), 7);
        // The view exposes exactly the restricted rows.
        assert_eq!(sub.view().row(0)[0], 10.0);
        assert_eq!(sub.view().row(1)[4], 19.0);
    }

    #[test]
    fn paste_from_restricted_tile_matches_manual_copy() {
        let tile = sample_tile(4, 3);
        let mut out = Array2::<f32>::zeroed(2, 5);
        out.paste(0, 2, tile.restrict(1..3).view());
        assert_eq!(out.get(0, 2), 3.0);
        assert_eq!(out.get(1, 4), 8.0);
        assert_eq!(out.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside tile rows")]
    fn restrict_outside_rows_panics() {
        sample_tile(4, 3).restrict(2..5);
    }
}
