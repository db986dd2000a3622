//! Corpus-wide chunk cache shared by every `dassd` request.
//!
//! The cache granule is a [`Member`]: a whole member file's sample
//! dataset, read by the planner's `read_member` — the same pooled read
//! the distributed executor's owner ranks make — and keyed by path.
//! Overlapping windowed queries from different clients therefore hit
//! the same entries: serving a hyperslab is a slice of the cached
//! member, which is byte-identical to `read_hyperslab_into` on the same
//! file because DASF stores the dataset row-major. The cache does not
//! know what a request planned; the server holds each member to its op
//! before it serves a row.
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
//!   evicted member's buffer returns to the pool once the last
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
//! Under v4 codecs the granule is the *decoded* member: residency is
//! charged at raw (decoded) size, because that is what the entry pins
//! in memory, while `cache.stored_bytes` accounts what was actually
//! read from disk.

use crate::dass::plan::{read_member, Member};
use crate::Result;
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

struct Entry {
    member: Arc<Member>,
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
    pub fn get_or_read(&self, path: &Path) -> Result<Arc<Member>> {
        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(e) = inner.map.get_mut(path) {
                e.referenced = true;
                self.hit.inc();
                return Ok(Arc::clone(&e.member));
            }
        }
        self.miss.inc();
        let member = Arc::new(read_member(path, &self.dataset, None)?);
        let nbytes = member.bytes();
        self.stored.add(member.stored_bytes());

        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.map.get_mut(path) {
            // Another thread cached it while we read; use theirs so
            // everyone shares one buffer.
            e.referenced = true;
            return Ok(Arc::clone(&e.member));
        }
        if nbytes > self.capacity {
            // Would never fit; serve uncached instead of flushing
            // everything else.
            return Ok(member);
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
                let freed = e.member.bytes();
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
                member: Arc::clone(&member),
                referenced: false,
            },
        );
        Ok(member)
    }
}
