//! The Logical Array View (paper Fig. 3): a rectangular subset of a VCA,
//! analogous to an HDF5 hyperslab, letting analyses run on "a subset of
//! interested channels" without copying or re-merging.

use super::plan::{IoExecutor, IoPlan};
use super::vca::Vca;
use crate::{DassaError, Result};
use arrayudf::Array2;
use std::ops::Range;

/// A logical view selecting `channels × time` out of a [`Vca`].
#[derive(Debug, Clone, PartialEq)]
pub struct Lav {
    channel_range: Range<u64>,
    time_range: Range<u64>,
}

impl Lav {
    /// A view over the given channel and time ranges.
    pub fn new(channel_range: Range<u64>, time_range: Range<u64>) -> Lav {
        Lav {
            channel_range,
            time_range,
        }
    }

    /// The full extent of `vca` as a view.
    pub fn full(vca: &Vca) -> Lav {
        Lav::new(0..vca.channels(), 0..vca.total_samples())
    }

    /// Restrict to a channel sub-range of this view (relative to the
    /// view, like slicing a slice).
    pub fn select_channels(&self, ch: Range<u64>) -> Result<Lav> {
        let len = self.channel_range.end - self.channel_range.start;
        if ch.end > len || ch.start >= ch.end {
            return Err(DassaError::BadSelection(format!(
                "channel sub-range {ch:?} invalid for view of {len} channels"
            )));
        }
        Ok(Lav::new(
            self.channel_range.start + ch.start..self.channel_range.start + ch.end,
            self.time_range.clone(),
        ))
    }

    /// Restrict to a time sub-range of this view.
    pub fn select_time(&self, t: Range<u64>) -> Result<Lav> {
        let len = self.time_range.end - self.time_range.start;
        if t.end > len || t.start >= t.end {
            return Err(DassaError::BadSelection(format!(
                "time sub-range {t:?} invalid for view of {len} samples"
            )));
        }
        Ok(Lav::new(
            self.channel_range.clone(),
            self.time_range.start + t.start..self.time_range.start + t.end,
        ))
    }

    /// Selected channel range in VCA coordinates.
    pub fn channel_range(&self) -> Range<u64> {
        self.channel_range.clone()
    }

    /// Selected time range in VCA coordinates.
    pub fn time_range(&self) -> Range<u64> {
        self.time_range.clone()
    }

    /// View shape `(channels, samples)`.
    pub fn shape(&self) -> (u64, u64) {
        (
            self.channel_range.end - self.channel_range.start,
            self.time_range.end - self.time_range.start,
        )
    }

    /// The [`IoPlan`] that materializes this view from `vca`.
    pub fn plan(&self, vca: &Vca) -> Result<IoPlan> {
        IoPlan::for_lav(vca, self)
    }

    /// Materialize the view from `vca`.
    pub fn read_f32(&self, vca: &Vca) -> Result<Array2<f32>> {
        Ok(IoExecutor::serial().run(&self.plan(vca)?)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dass::search::tests::make_files;
    use crate::dass::FileCatalog;

    fn sample_vca(tag: &str) -> Vca {
        let dir = make_files(tag, "170728224510", 2, 6, 30);
        let cat = FileCatalog::scan(&dir).unwrap();
        Vca::from_entries(cat.entries()).unwrap()
    }

    #[test]
    fn full_view_reads_everything() {
        let vca = sample_vca("lav-full");
        let lav = Lav::full(&vca);
        assert_eq!(lav.shape(), (6, 60));
        assert_eq!(lav.read_f32(&vca).unwrap(), vca.read_all_f32().unwrap());
    }

    #[test]
    fn channel_subset_matches_direct_read() {
        let vca = sample_vca("lav-ch");
        let lav = Lav::full(&vca).select_channels(2..5).unwrap();
        assert_eq!(lav.shape(), (3, 60));
        assert_eq!(
            lav.read_f32(&vca).unwrap(),
            vca.read_region_f32(2..5, 0..60).unwrap()
        );
    }

    #[test]
    fn nested_subsetting_composes() {
        let vca = sample_vca("lav-nest");
        let lav = Lav::full(&vca)
            .select_channels(1..5)
            .unwrap()
            .select_time(10..50)
            .unwrap()
            .select_channels(1..3)
            .unwrap()
            .select_time(5..20)
            .unwrap();
        assert_eq!(lav.channel_range(), 2..4);
        assert_eq!(lav.time_range(), 15..30);
        assert_eq!(
            lav.read_f32(&vca).unwrap(),
            vca.read_region_f32(2..4, 15..30).unwrap()
        );
    }

    #[test]
    fn invalid_subsets_rejected() {
        let vca = sample_vca("lav-bad");
        let lav = Lav::full(&vca);
        assert!(lav.select_channels(0..7).is_err());
        assert!(lav.select_channels(3..3).is_err());
        assert!(lav.select_time(0..61).is_err());
    }
}
