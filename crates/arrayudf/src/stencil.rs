//! The `Stencil` abstraction: relative neighbourhood access for UDFs.

use crate::array::Array2;

/// A movable window over an [`Array2`], handed to user-defined functions.
///
/// Follows the paper's notation: the array is `channel × time`, and a
/// stencil access `S(dt, dc)` takes a **time offset** `dt` and a
/// **channel offset** `dc` relative to the current cell, so the paper's
/// `S(-M:M, 0)` becomes [`Stencil::window`]`(-M, M, 0)`.
///
/// Out-of-range accesses clamp to the array edge (replicate padding).
/// Every engine applies over the whole array, so only its true edges
/// clamp.
pub struct Stencil<'a, T> {
    array: &'a Array2<T>,
    /// Current channel (row).
    channel: usize,
    /// Current time sample (column).
    time: usize,
}

impl<'a, T: Copy> Stencil<'a, T> {
    /// Create a stencil positioned at `(channel, time)`.
    pub fn new(array: &'a Array2<T>, channel: usize, time: usize) -> Stencil<'a, T> {
        debug_assert!(channel < array.rows() && time < array.cols());
        Stencil {
            array,
            channel,
            time,
        }
    }

    /// The current channel index within the local block.
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// The current time index within the local block.
    pub fn time(&self) -> usize {
        self.time
    }

    /// Number of time samples per channel in the local block.
    pub fn time_len(&self) -> usize {
        self.array.cols()
    }

    /// Number of channels in the local block.
    pub fn channel_len(&self) -> usize {
        self.array.rows()
    }

    #[inline]
    fn clamp_channel(&self, dc: isize) -> usize {
        let c = self.channel as isize + dc;
        c.clamp(0, self.array.rows() as isize - 1) as usize
    }

    #[inline]
    fn clamp_time(&self, dt: isize) -> usize {
        let t = self.time as isize + dt;
        t.clamp(0, self.array.cols() as isize - 1) as usize
    }

    /// Value at time offset `dt`, channel offset `dc` — the paper's
    /// `S(dt, dc)`. `at(0, 0)` is the current cell.
    #[inline]
    pub fn at(&self, dt: isize, dc: isize) -> T {
        self.array.get(self.clamp_channel(dc), self.clamp_time(dt))
    }

    /// The current cell's value.
    #[inline]
    pub fn value(&self) -> T {
        self.at(0, 0)
    }

    /// The paper's `S(t_lo : t_hi, dc)`: time samples `t_lo..=t_hi`
    /// (inclusive, relative) on the channel at offset `dc`. Edge-clamped.
    pub fn window(&self, t_lo: isize, t_hi: isize, dc: isize) -> Vec<T> {
        debug_assert!(t_lo <= t_hi);
        (t_lo..=t_hi).map(|dt| self.at(dt, dc)).collect()
    }

    /// Zero-copy variant of [`Stencil::window`] available when the whole
    /// window lies in bounds: a contiguous slice of the channel's time
    /// series. Returns `None` when clamping would be required.
    pub fn window_slice(&self, t_lo: isize, t_hi: isize, dc: isize) -> Option<&'a [T]> {
        let c = self.channel as isize + dc;
        if c < 0 || c >= self.array.rows() as isize {
            return None;
        }
        let lo = self.time as isize + t_lo;
        let hi = self.time as isize + t_hi;
        if lo < 0 || hi >= self.array.cols() as isize || lo > hi {
            return None;
        }
        let row = self.array.row(c as usize);
        Some(&row[lo as usize..=hi as usize])
    }

    /// The full time series of the channel at offset `dc` (the paper's
    /// `S(0 : W−1, 0)` pattern in Algorithm 3, with `W` the row length).
    pub fn channel_series(&self, dc: isize) -> &'a [T] {
        self.array.row(self.clamp_channel(dc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Array2<i64> {
        // 4 channels × 5 samples; value = ch*100 + t.
        Array2::from_fn(4, 5, |r, c| (r * 100 + c) as i64)
    }

    #[test]
    fn at_relative_addressing() {
        let a = grid();
        let s = Stencil::new(&a, 2, 3);
        assert_eq!(s.value(), 203);
        assert_eq!(s.at(-1, 0), 202);
        assert_eq!(s.at(1, 0), 204);
        assert_eq!(s.at(0, -1), 103);
        assert_eq!(s.at(0, 1), 303);
        assert_eq!(s.at(-2, -2), 1);
    }

    #[test]
    fn edges_clamp() {
        let a = grid();
        let s = Stencil::new(&a, 0, 0);
        assert_eq!(s.at(-1, 0), 0, "time clamps at start");
        assert_eq!(s.at(0, -1), 0, "channel clamps at start");
        let e = Stencil::new(&a, 3, 4);
        assert_eq!(e.at(1, 0), 304, "time clamps at end");
        assert_eq!(e.at(0, 1), 304, "channel clamps at end");
    }

    #[test]
    fn window_inclusive_range() {
        let a = grid();
        let s = Stencil::new(&a, 1, 2);
        assert_eq!(s.window(-1, 1, 0), vec![101, 102, 103]);
        assert_eq!(s.window(-1, 1, 1), vec![201, 202, 203]);
        assert_eq!(s.window(0, 0, 0), vec![102]);
    }

    #[test]
    fn window_slice_zero_copy_when_in_bounds() {
        let a = grid();
        let s = Stencil::new(&a, 1, 2);
        assert_eq!(s.window_slice(-1, 1, 0).unwrap(), &[101, 102, 103]);
        assert!(s.window_slice(-3, 1, 0).is_none(), "needs clamping");
        assert!(s.window_slice(-1, 1, 5).is_none(), "channel OOB");
    }

    #[test]
    fn channel_series_is_full_row() {
        let a = grid();
        let s = Stencil::new(&a, 2, 0);
        assert_eq!(s.channel_series(0), a.row(2));
        assert_eq!(s.channel_series(-1), a.row(1));
        assert_eq!(s.channel_series(10), a.row(3), "clamped");
    }

    #[test]
    fn geometry_accessors() {
        let a = grid();
        let s = Stencil::new(&a, 1, 2);
        assert_eq!(s.channel(), 1);
        assert_eq!(s.time(), 2);
        assert_eq!(s.channel_len(), 4);
        assert_eq!(s.time_len(), 5);
    }
}
