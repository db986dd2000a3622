//! Small shared pieces: the oracle digest, the seed-driven generator,
//! process counters from `/proc`, and the scratch directory.

use std::path::{Path, PathBuf};

/// Position-weighted digest of a row-major array: a wrapping sum of
/// `(bits ^ salt) · (2·index + 1)`. A sum, so a tile's contribution can
/// be computed where the tile is rendered (see [`Digest::add_tile`])
/// and the whole-array value needs no second copy of the corpus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest(pub u64);

const SALT: u64 = 0x9E37_79B9_7F4A_7C15;

impl Digest {
    /// Add a `rows × cols` tile that sits at column `col0` of a logical
    /// array `total_cols` wide (row 0 of the tile is row 0 of the array).
    pub fn add_tile(&mut self, tile: &[f32], cols: usize, total_cols: usize, col0: usize) {
        let mut acc = self.0;
        for (r, row) in tile.chunks_exact(cols).enumerate() {
            let base = (r * total_cols + col0) as u64;
            for (c, v) in row.iter().enumerate() {
                let w = 2 * (base + c as u64) + 1;
                acc = acc.wrapping_add((v.to_bits() as u64 ^ SALT).wrapping_mul(w));
            }
        }
        self.0 = acc;
    }

    pub fn of_f32(data: &[f32]) -> Digest {
        let mut d = Digest::default();
        d.add_tile(data, data.len().max(1), data.len().max(1), 0);
        d
    }

    /// Digest of an analysis output as `AnalysisOutput::to_dataset`
    /// flattens it: the values, and the dims folded in.
    pub fn of_dataset(dims: &[u64], values: &[f64]) -> Digest {
        let mut acc = dims
            .iter()
            .fold(0u64, |a, d| a.wrapping_mul(31).wrapping_add(*d));
        for (i, v) in values.iter().enumerate() {
            acc = acc.wrapping_add((v.to_bits() ^ SALT).wrapping_mul(2 * i as u64 + 1));
        }
        Digest(acc)
    }

    /// `Ok` when this digest is the oracle's.
    pub fn expect(self, oracle: Digest) -> Result<(), String> {
        if self == oracle {
            Ok(())
        } else {
            Err(format!(
                "output digest {:016x}, oracle {:016x}",
                self.0, oracle.0
            ))
        }
    }
}

/// FNV-1a over dims then sample bit patterns — the digest the ingest
/// daemon writes into every window report, recomputed here from an
/// independently produced output.
pub fn report_digest(dims: &[u64], values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words = dims
        .iter()
        .copied()
        .chain(values.iter().map(|v| v.to_bits()));
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// SplitMix64: the schedule generator. Same seed, same schedule.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `VmHWM` of this process in MB (peak resident set).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line, in clock ticks (100 Hz).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|t| t.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// The run's scratch directory, removed on drop.
///
/// Inside the checkout (`benchmark/out/`) unless `DAS_BENCH_SCRATCH`
/// names another place — e.g. a tmpfs, which takes writeback out of the
/// timings when one may be used.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let base = std::env::var_os("DAS_BENCH_SCRATCH")
            .map(PathBuf::from)
            .unwrap_or_else(out_dir);
        let root = base.join(format!("scratch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A fresh, empty subdirectory (an earlier one of that name is removed).
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let p = self.root.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }

    /// Filesystem type of the scratch directory, from `/proc/mounts`.
    pub fn fs_type(&self) -> String {
        let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
        let root = self
            .root
            .canonicalize()
            .unwrap_or_else(|_| self.root.clone());
        mounts
            .lines()
            .filter_map(|l| {
                let mut it = l.split_whitespace();
                let (_, mount, fs) = (it.next()?, it.next()?, it.next()?);
                root.starts_with(mount)
                    .then(|| (mount.len(), fs.to_string()))
            })
            .max_by_key(|(len, _)| *len)
            .map_or_else(|| "unknown".into(), |(_, fs)| fs)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// `benchmark/out/`: where scratch data and trace files go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_the_sum_of_its_tiles() {
        // a 2 x 6 array as two 2 x 3 tiles side by side
        let whole: Vec<f32> = (0..12).map(|i| i as f32 * 1.5).collect();
        let left: Vec<f32> = vec![whole[0], whole[1], whole[2], whole[6], whole[7], whole[8]];
        let right: Vec<f32> = vec![whole[3], whole[4], whole[5], whole[9], whole[10], whole[11]];
        let mut d = Digest::default();
        d.add_tile(&right, 3, 6, 3);
        d.add_tile(&left, 3, 6, 0);
        let mut w = Digest::default();
        w.add_tile(&whole, 6, 6, 0);
        assert_eq!(d, w);
        // and it notices two swapped cells
        let mut swapped = whole.clone();
        swapped.swap(1, 7);
        let mut s = Digest::default();
        s.add_tile(&swapped, 6, 6, 0);
        assert_ne!(s, w);
    }

    #[test]
    fn rng_repeats_for_a_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..5).map(|_| r.below(1000)).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..5).map(|_| r.below(1000)).collect()
        };
        assert_eq!(a, b);
        let mut r = Rng::new(8);
        assert_ne!(a, (0..5).map(|_| r.below(1000)).collect::<Vec<_>>());
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
