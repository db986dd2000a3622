//! `storage_scan`: hyperslab reads, bulk reads and a scrub over a
//! `shuffle-lz` corpus. `dasf` (CRC, codec, reader, pool) and `dass`
//! (plan, executor) do the work; `dsp` does none.

use super::{generate, lz, slab, Corpus, Workload, HZ, SPM};
use crate::harness::{Cx, Kind};
use crate::trace::Tracer;
use crate::util::{Digest, Rng};
use arrayudf::Array2;
use dassa::prelude::*;
use std::ops::Range;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub files: u64,
    pub channels: u64,
    /// The narrow read: channels × seconds, across a file boundary.
    pub reg_ch: u64,
    pub reg_s: u64,
    /// Distinct narrow regions the passes rotate through.
    pub regions: usize,
    /// Files one bulk read (and one scrub) covers.
    pub group: u64,
    /// Narrow reads per pass.
    pub lights: usize,
}

impl Shape {
    pub fn pick(quick: bool) -> Shape {
        if quick {
            Shape {
                files: 4,
                channels: 8,
                reg_ch: 4,
                reg_s: 2,
                regions: 6,
                group: 2,
                lights: 2,
            }
        } else {
            Shape {
                files: 16,
                channels: 32,
                reg_ch: 8,
                reg_s: 10,
                regions: 32,
                group: 4,
                lights: 8,
            }
        }
    }
}

/// A narrow region and the digest its samples must have.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    pub ch: Range<u64>,
    pub t: Range<u64>,
    digest: Digest,
}

/// A group of consecutive files read whole.
struct Group {
    vca: Vca,
    paths: Vec<PathBuf>,
    digest: Digest,
}

pub struct StorageScan {
    shape: Shape,
    corpus: Corpus,
    vca: Vca,
    regions: Vec<Region>,
    groups: Vec<Group>,
    next_region: usize,
    pass: usize,
}

/// The regions a seed gives: each straddles the boundary between two
/// consecutive files, boundaries taken in rotation.
pub fn regions_for(seed: u64, shape: &Shape) -> Vec<(Range<u64>, Range<u64>)> {
    let mut rng = Rng::new(seed);
    let len = shape.reg_s * HZ;
    (0..shape.regions as u64)
        .map(|i| {
            let boundary = (i % (shape.files - 1) + 1) * SPM;
            // the boundary falls in the middle half of the region
            let before = len / 4 + rng.below(len / 2 + 1);
            let t0 = boundary - before;
            let c0 = rng.below(shape.channels - shape.reg_ch + 1);
            (c0..c0 + shape.reg_ch, t0..t0 + len)
        })
        .collect()
}

impl StorageScan {
    pub fn setup(seed: u64, shape: Shape, dir: &Path) -> Result<StorageScan, String> {
        let n_groups = (shape.files / shape.group) as usize;
        let group_cols = (shape.group * SPM) as usize;
        let mut group_digests = vec![Digest::default(); n_groups];
        let specs = regions_for(seed, &shape);
        let mut region_digests = vec![Digest::default(); specs.len()];
        let mut previous: Option<Array2<f32>> = None;
        let corpus = generate(dir, seed, shape.channels, shape.files, lz(), |m, minute| {
            // Oracles from the render. The bulk read: this minute's tile
            // at its place in its group's logical array.
            let col0 = (m % shape.group * SPM) as usize;
            if let Some(d) = group_digests.get_mut((m / shape.group) as usize) {
                d.add_tile(minute.as_slice(), SPM as usize, group_cols, col0);
            }
            // The narrow reads that end in this minute: the tail of the
            // one before, then the head of this one.
            if let Some(prev) = &previous {
                for (d, (ch, t)) in region_digests.iter_mut().zip(&specs) {
                    if t.end.div_ceil(SPM) - 1 != m {
                        continue;
                    }
                    let len = (t.end - t.start) as usize;
                    let tail = slab(prev, ch.clone(), t.start - (m - 1) * SPM..SPM);
                    let head = slab(minute, ch.clone(), 0..t.end - m * SPM);
                    d.add_tile(tail.as_slice(), tail.cols(), len, 0);
                    d.add_tile(head.as_slice(), head.cols(), len, tail.cols());
                }
            }
            previous = Some(minute.clone());
            Ok(())
        })?;
        drop(previous);
        let vca = corpus.vca()?;
        let regions = specs
            .into_iter()
            .zip(region_digests)
            .map(|((ch, t), digest)| Region { ch, t, digest })
            .collect();

        let entries = vca.entries();
        let groups = group_digests
            .into_iter()
            .enumerate()
            .map(|(g, digest)| {
                let members = &entries[g * shape.group as usize..(g + 1) * shape.group as usize];
                Ok(Group {
                    vca: Vca::from_entries(members).map_err(|e| e.to_string())?,
                    paths: members.iter().map(|e| e.path.clone()).collect(),
                    digest,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(StorageScan {
            shape,
            corpus,
            vca,
            regions,
            groups,
            next_region: 0,
            pass: 0,
        })
    }
}

/// Plan a region of `vca` and run the plan on the serial executor.
pub fn read_region(
    tr: &Tracer,
    vca: &Vca,
    ch: Range<u64>,
    t: Range<u64>,
) -> Result<Array2<f32>, String> {
    let plan = tr
        .span("dass.plan", || IoPlan::for_region(vca, ch, t))
        .map_err(|e| e.to_string())?;
    tr.span("dass.exec_read", || IoExecutor::serial().run(&plan))
        .map(|(block, _)| block)
        .map_err(|e| e.to_string())
}

impl Workload for StorageScan {
    fn cycle(&mut self, cx: &mut Cx) {
        for _ in 0..self.shape.lights {
            let r = &self.regions[self.next_region % self.regions.len()];
            cx.op(
                Kind::Light,
                "op.light",
                |tr| read_region(tr, &self.vca, r.ch.clone(), r.t.clone()),
                |block| Digest::of_f32(block.as_slice()).expect(r.digest),
            );
            self.next_region += 1;
        }
        let g = &self.groups[self.pass % self.groups.len()];
        cx.op(
            Kind::Heavy,
            "op.heavy",
            // the whole logical array of the group: what `Vca::read_all_f32` plans
            |tr| read_region(tr, &g.vca, 0..g.vca.channels(), 0..g.vca.total_samples()),
            |block| Digest::of_f32(block.as_slice()).expect(g.digest),
        );
        cx.op(
            Kind::Other,
            "op.scrub",
            |tr| Ok(tr.span("dass.scrub", || scrub_paths(&g.paths, 1))),
            |report| {
                if report.is_clean() && report.scanned() == g.paths.len() {
                    Ok(())
                } else {
                    Err(format!(
                        "scrub: {} of {} files clean",
                        report.clean(),
                        g.paths.len()
                    ))
                }
            },
        );
        self.pass += 1;
    }

    fn cycle_bytes(&self) -> u64 {
        let s = &self.shape;
        (s.lights as u64 * s.reg_ch * s.reg_s * HZ + s.group * s.channels * SPM) * 4
    }

    fn stored_ratio(&self) -> f64 {
        self.corpus.stored_ratio()
    }

    fn describe(&self) -> String {
        let s = &self.shape;
        format!(
            "{} shuffle-lz files x {} ch x {HZ} Hz ({:.1} MB raw, {:.1} MB stored); pass = {} region reads \
             of {} ch x {} s across a file boundary ({} regions) + 1 bulk read of {} files ({:.1} MB) + 1 scrub of them",
            s.files,
            s.channels,
            self.corpus.raw_bytes as f64 / 1e6,
            self.corpus.stored_bytes as f64 / 1e6,
            s.lights,
            s.reg_ch,
            s.reg_s,
            s.regions,
            s.group,
            (s.group * s.channels * SPM * 4) as f64 / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_repeat_for_a_seed_and_straddle_a_boundary() {
        let shape = Shape::pick(false);
        let a = regions_for(5, &shape);
        assert_eq!(a, regions_for(5, &shape));
        assert_ne!(a, regions_for(6, &shape));
        for (ch, t) in &a {
            assert_eq!(ch.end - ch.start, shape.reg_ch);
            assert_eq!(t.end - t.start, shape.reg_s * HZ);
            assert!(ch.end <= shape.channels && t.end <= shape.files * SPM);
            assert_eq!(t.start / SPM + 1, (t.end - 1) / SPM, "two files touched");
        }
    }
}
