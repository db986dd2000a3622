//! `dasgen` — a synthetic DAS acquisition generator.
//!
//! The DASSA paper's dataset is a 1.9 TB, 2880-file recording from a
//! 25 km dark fiber between West Sacramento and Woodland, CA: 11,648
//! channels at 500 Hz, one file per minute, containing traffic noise,
//! a persistent vibration source, and an M4.4 earthquake (Figures 1b
//! and 10). That recording is not redistributable, so this crate
//! synthesizes an acquisition with the same *structure*:
//!
//! * [`Scene`] describes the array geometry and an event list —
//!   [`Event::Vehicle`] (linear moveout streaks), [`Event::Earthquake`]
//!   (P/S wavefronts expanding from an epicenter), and
//!   [`Event::Persistent`] (a stationary vibrating source), all atop
//!   seeded ambient noise;
//! * [`Scene::render`] produces the `channel × time` array for any time
//!   window, and [`Scene::render_components`] additionally returns the
//!   noise-free event field, giving experiments pixel-level ground truth;
//! * [`write_minute_files`] emits standard one-minute DAS files in the
//!   paper's Figure 4 schema, ready for `das_search`, VCA merging, and
//!   the parallel readers.
//!
//! Determinism: everything derives from `Scene::seed`, so experiments
//! regenerate identical data on every run.

#![forbid(unsafe_code)]

mod events;
mod noise;
mod scene;
mod writer;

pub use events::Event;
pub use scene::Scene;
pub use writer::{write_minute_files, write_minute_files_with_codec};
