//! Corpus-wide chunk cache shared by every `dassd` request.
//!
//! The cache granule is a whole member file's sample dataset (the unit
//! `IoPlan` reads are built from), keyed by path. Overlapping windowed
//! queries from different clients therefore hit the same entries:
//! serving a hyperslab is a slice of the cached full tile, which is
//! byte-identical to `read_hyperslab_into` on the same file because
//! DASF stores the dataset row-major.
//!
//! Properties:
//!
//! * **Capacity-bounded.** Resident bytes never exceed the configured
//!   capacity; an entry larger than the whole capacity is served
//!   uncached rather than evicting everything.
//! * **CLOCK (second-chance) eviction.** A hit sets the entry's
//!   referenced bit; the evictor sweeps a queue, demoting referenced
//!   entries once before evicting them — LRU-approximating without
//!   per-hit queue surgery.
//! * **Checksum-verified only.** Entries come from `dasf` v3/v4
//!   verified reads (checksums are validated over the stored bytes
//!   before any decode runs); any error — in particular
//!   `ChecksumMismatch` — propagates
//!   to the caller and is *never* cached, so one corrupt page cannot
//!   poison later requests.
//! * **Pooled memory.** Samples live in [`dasf::pool`] buffers; an
//!   evicted chunk's buffer returns to the pool once the last
//!   in-flight reader drops its `Arc`.
//!
//! Metrics (on the registry passed to [`ChunkCache::new`], aggregating
//! into its parent): counters `cache.{hit,miss,evict}`, gauge
//! `cache.bytes` (current resident bytes), histogram
//! `cache.resident_bytes` (resident level sampled after each insert —
//! its max is the high-water mark the stress test bounds), and counter
//! `cache.stored_bytes` (on-disk — possibly compressed — bytes behind
//! each miss; with v4 codecs this trails `cache.bytes` growth, and the
//! gap is the decode amplification the cache absorbs).
//!
//! Under v4 codecs the granule is the *decoded* tile: residency is
//! charged at raw (decoded) size, because that is what the entry pins
//! in memory, while `cache.stored_bytes` accounts what was actually
//! read from disk.

use crate::Result;
use dasf::File;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Metric names recorded by the cache.
pub mod metric_names {
    /// Gets served from a resident entry.
    pub const HIT: &str = "cache.hit";
    /// Gets that went to disk.
    pub const MISS: &str = "cache.miss";
    /// Entries evicted to make room.
    pub const EVICT: &str = "cache.evict";
    /// Current resident bytes (gauge).
    pub const BYTES: &str = "cache.bytes";
    /// Resident bytes sampled after each insert (histogram; `max` is
    /// the high-water mark).
    pub const RESIDENT_BYTES: &str = "cache.resident_bytes";
    /// On-disk (stored, possibly compressed) bytes behind cache misses.
    pub const STORED_BYTES: &str = "cache.stored_bytes";
}

/// One cached member-file dataset: the full `rows × cols` tile in a
/// pooled buffer.
pub struct Chunk {
    rows: usize,
    cols: usize,
    stored_bytes: u64,
    data: dasf::pool::PooledBuf<f32>,
}

impl std::fmt::Debug for Chunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chunk")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .finish_non_exhaustive()
    }
}

impl Chunk {
    /// Tile height (channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Tile width (samples).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major samples, `rows * cols` long.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Payload size in bytes (decoded — what residency is charged at).
    pub fn bytes(&self) -> u64 {
        (self.rows * self.cols * std::mem::size_of::<f32>()) as u64
    }

    /// On-disk footprint of the dataset this tile was decoded from;
    /// equals [`Chunk::bytes`] for uncompressed files.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// The hyperslab `sel` (`[(row0, nrows), (col0, ncols)]` in the
    /// file's local coordinates), or the whole tile when `sel` is
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

    /// [`Chunk::slab_rows`] copied out into one row-major `Vec`.
    pub fn hyperslab(&self, sel: Option<[(u64, u64); 2]>) -> Vec<f32> {
        let rows = self.slab_rows(sel);
        let mut out = Vec::with_capacity(rows.clone().map(<[f32]>::len).sum());
        for row in rows {
            out.extend_from_slice(row);
        }
        out
    }
}

struct Entry {
    chunk: Arc<Chunk>,
    referenced: bool,
}

struct Inner {
    map: HashMap<PathBuf, Entry>,
    /// CLOCK sweep order; may hold stale keys (skipped on pop).
    clock: VecDeque<PathBuf>,
    resident: u64,
}

/// The shared, capacity-bounded chunk cache. All methods take `&self`;
/// any thread may call them concurrently.
pub struct ChunkCache {
    capacity: u64,
    dataset: String,
    inner: Mutex<Inner>,
    hit: obs::Counter,
    miss: obs::Counter,
    evict: obs::Counter,
    bytes: obs::Gauge,
    resident_hist: obs::Histogram,
    stored: obs::Counter,
}

impl ChunkCache {
    /// A cache bounded at `capacity` bytes, reading the dataset at
    /// `dataset` in each member file, reporting into `registry`.
    pub fn new(capacity: u64, dataset: &str, registry: &obs::Registry) -> ChunkCache {
        ChunkCache {
            capacity,
            dataset: dataset.to_string(),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: VecDeque::new(),
                resident: 0,
            }),
            hit: registry.counter(metric_names::HIT),
            miss: registry.counter(metric_names::MISS),
            evict: registry.counter(metric_names::EVICT),
            bytes: registry.gauge(metric_names::BYTES),
            resident_hist: registry.histogram(metric_names::RESIDENT_BYTES),
            stored: registry.counter(metric_names::STORED_BYTES),
        }
    }

    /// Configured capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Current resident bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().unwrap().resident
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `path` is resident (does not touch the referenced
    /// bit; test hook).
    pub fn contains(&self, path: &Path) -> bool {
        self.inner.lock().unwrap().map.contains_key(path)
    }

    /// Fetch the member file's full dataset, from cache or disk. Disk
    /// reads happen outside the lock, so concurrent misses on
    /// different files overlap; a lost race on the *same* file adopts
    /// the winner's entry and drops the duplicate buffer back to the
    /// pool. Errors — including `ChecksumMismatch` — propagate and
    /// leave no cache entry behind.
    pub fn get_or_read(&self, path: &Path) -> Result<Arc<Chunk>> {
        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(e) = inner.map.get_mut(path) {
                e.referenced = true;
                self.hit.inc();
                return Ok(Arc::clone(&e.chunk));
            }
        }
        self.miss.inc();
        let chunk = Arc::new(self.read_chunk(path)?);
        let nbytes = chunk.bytes();
        self.stored.add(chunk.stored_bytes());

        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.map.get_mut(path) {
            // Another thread cached it while we read; use theirs so
            // everyone shares one buffer.
            e.referenced = true;
            return Ok(Arc::clone(&e.chunk));
        }
        if nbytes > self.capacity {
            // Would never fit; serve uncached instead of flushing
            // everything else.
            return Ok(chunk);
        }
        while inner.resident + nbytes > self.capacity {
            let Some(key) = inner.clock.pop_front() else {
                break;
            };
            let demote = match inner.map.get_mut(&key) {
                None => continue, // stale queue entry
                Some(e) if e.referenced => {
                    // Second chance: demote and move on. Bits are only
                    // *set* under the lock we hold, so each entry is
                    // demoted at most once per sweep and the loop
                    // terminates.
                    e.referenced = false;
                    true
                }
                Some(_) => false,
            };
            if demote {
                inner.clock.push_back(key);
            } else {
                let e = inner.map.remove(&key).unwrap();
                let freed = e.chunk.bytes();
                inner.resident -= freed;
                self.bytes.sub(freed);
                self.evict.inc();
            }
        }
        inner.resident += nbytes;
        self.bytes.add(nbytes);
        self.resident_hist.record(inner.resident);
        inner.clock.push_back(path.to_path_buf());
        inner.map.insert(
            path.to_path_buf(),
            Entry {
                chunk: Arc::clone(&chunk),
                referenced: false,
            },
        );
        Ok(chunk)
    }

    /// Verified read of the whole dataset into a pooled buffer.
    fn read_chunk(&self, path: &Path) -> Result<Chunk> {
        let f = File::open(path)?;
        let ds = f.dataset(&self.dataset)?;
        let dims = ds.dims.clone();
        if dims.len() != 2 {
            return Err(crate::DassaError::Inconsistent(format!(
                "{}: expected a 2-D dataset at {}, got {} dims",
                path.display(),
                self.dataset,
                dims.len()
            )));
        }
        let (rows, cols) = (dims[0] as usize, dims[1] as usize);
        let stored_bytes = ds.stored_byte_len();
        let mut buf = dasf::pool::f32s().acquire(rows * cols);
        let n = f.read_into(&self.dataset, &mut buf)?;
        debug_assert_eq!(n, rows * cols);
        Ok(Chunk {
            rows,
            cols,
            stored_bytes,
            data: buf,
        })
    }
}
