//! Zero-copy tiles: the unit of data the I/O executor moves.
//!
//! A [`Tile`] is a row range of one member file's `channel × time`
//! block: a shared [`Member`], read whole into a pooled buffer by
//! `read_member`. Restricting a tile to a destination's channel rows is
//! an `Arc` bump plus a range — no pack copy — and sending it through a
//! `minimpi` collective moves the handle while the byte counters
//! account for the sample bytes the handle references (see
//! [`minimpi::WirePayload`]), so communication statistics stay
//! identical to the old deep-copy exchange.

use super::Member;
use arrayudf::TileView;
use std::ops::Range;
use std::sync::Arc;

/// A view of `rows` channel rows of one member file's data, destined
/// for global column offset `t0`.
#[derive(Clone, Debug)]
pub struct Tile {
    member: Arc<Member>,
    /// The channel rows this tile covers, in the member's coordinates.
    rows: Range<usize>,
    /// Global column (time) offset where this tile lands.
    t0: usize,
}

impl Tile {
    /// Wrap a freshly read member as a whole-file tile.
    pub fn whole(member: Arc<Member>, t0: usize) -> Tile {
        Tile {
            rows: 0..member.rows(),
            member,
            t0,
        }
    }

    /// The same member restricted to `rows` (member coordinates) — an
    /// `Arc` clone, no copy.
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
            member: Arc::clone(&self.member),
            rows,
            t0: self.t0,
        }
    }

    /// Number of rows in the tile.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns in the tile (the member file's sample count).
    pub fn cols(&self) -> usize {
        self.member.cols()
    }

    /// Global column offset where this tile lands.
    pub fn t0(&self) -> usize {
        self.t0
    }

    /// Borrow the tile's samples as a (possibly strided) 2-D view,
    /// ready for [`arrayudf::Array2::paste`].
    pub fn view(&self) -> TileView<'_, f32> {
        let cols = self.cols();
        let data = &self.member.data()[self.rows.start * cols..self.rows.end * cols];
        TileView::with_stride(self.rows.len(), cols, cols, data)
    }
}

/// Collectives moving tiles count the referenced sample bytes, exactly
/// what shipping the rows as a packed `Vec<f32>` would have counted.
impl minimpi::WirePayload for Tile {
    fn wire_bytes(&self) -> usize {
        self.rows.len() * self.cols() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::super::member::tests::member_of;
    use super::*;
    use arrayudf::Array2;
    use minimpi::WirePayload;

    fn sample_tile(rows: usize, cols: usize) -> Tile {
        let mut buf = dasf::pool::f32s().acquire(rows * cols);
        buf.extend((0..rows * cols).map(|i| i as f32));
        Tile::whole(Arc::new(member_of(rows, cols, buf)), 7)
    }

    #[test]
    fn restrict_is_zero_copy_and_counts_referenced_bytes() {
        let tile = sample_tile(6, 5);
        assert_eq!(tile.wire_bytes(), 6 * 5 * 4);
        let sub = tile.restrict(2..4);
        assert_eq!(sub.wire_bytes(), 2 * 5 * 4);
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
