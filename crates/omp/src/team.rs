//! Parallel regions, worksharing loops, and team synchronization.

use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Barrier;

/// Team-wide state shared by every thread of a parallel region.
struct Team {
    num_threads: usize,
    barrier: Barrier,
    /// `single` constructs claimed so far, keyed by construct sequence
    /// number (threads execute constructs in the same SPMD order).
    singles: Mutex<HashMap<usize, ()>>,
}

/// Per-thread handle inside a parallel region, analogous to the implicit
/// state behind `omp_get_thread_num()` etc.
pub struct Ctx<'t> {
    team: &'t Team,
    thread_num: usize,
    single_seq: Cell<usize>,
}

impl<'t> Ctx<'t> {
    /// This thread's index within the team (`omp_get_thread_num`).
    pub fn thread_num(&self) -> usize {
        self.thread_num
    }

    /// Team size (`omp_get_num_threads`).
    pub fn num_threads(&self) -> usize {
        self.team.num_threads
    }

    /// `#pragma omp barrier`: wait until every team member arrives.
    pub fn barrier(&self) {
        self.team.barrier.wait();
    }

    /// `#pragma omp single`: exactly one thread runs `f`; all threads then
    /// synchronize on the implicit end-of-single barrier.
    ///
    /// Returns `Some(result)` on the executing thread, `None` elsewhere.
    pub fn single<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        let seq = self.single_seq.get();
        self.single_seq.set(seq + 1);
        let won = {
            let mut claimed = self.team.singles.lock();
            claimed.insert(seq, ()).is_none()
        };
        let out = if won { Some(f()) } else { None };
        self.barrier();
        out
    }

    /// The contiguous iteration block this thread owns under the default
    /// static schedule for a loop of `n` iterations.
    pub fn static_block(&self, n: usize) -> Range<usize> {
        static_block(n, self.thread_num, self.team.num_threads)
    }

    /// `#pragma omp for schedule(static)`: each thread runs its contiguous
    /// block of `range`. No implied barrier (pair with [`Ctx::barrier`]
    /// when the original pragma has one, as Algorithm 1 does).
    pub fn for_static(&self, range: Range<usize>, mut f: impl FnMut(usize)) {
        let base = range.start;
        for i in self.static_block(range.len()) {
            f(base + i);
        }
    }
}

/// The contiguous block of `0..n` owned by thread `h` of `t` under the
/// default static schedule: ceil-divided chunks, front-loaded.
pub(crate) fn static_block(n: usize, h: usize, t: usize) -> Range<usize> {
    debug_assert!(h < t);
    let chunk = n.div_ceil(t.max(1));
    let start = (h * chunk).min(n);
    let end = ((h + 1) * chunk).min(n);
    start..end
}

/// `#pragma omp parallel num_threads(n)`: run `f` on a team of `n`
/// threads and join them all (fork-join). The closure receives a per-thread
/// [`Ctx`]. With `n == 1` the region runs inline on the caller's thread.
pub fn parallel<F>(num_threads: usize, f: F)
where
    F: Fn(&Ctx) + Sync,
{
    let num_threads = num_threads.max(1);
    let team = Team {
        num_threads,
        barrier: Barrier::new(num_threads),
        singles: Mutex::new(HashMap::new()),
    };
    if num_threads == 1 {
        let ctx = Ctx {
            team: &team,
            thread_num: 0,
            single_seq: Cell::new(0),
        };
        f(&ctx);
        return;
    }
    std::thread::scope(|scope| {
        for h in 0..num_threads {
            let team = &team;
            let f = &f;
            scope.spawn(move || {
                let ctx = Ctx {
                    team,
                    thread_num: h,
                    single_seq: Cell::new(0),
                };
                f(&ctx);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn static_block_covers_range_disjointly() {
        for n in [0usize, 1, 7, 16, 100] {
            for t in [1usize, 2, 3, 8, 17] {
                let mut seen = vec![false; n];
                for h in 0..t {
                    for i in static_block(n, h, t) {
                        assert!(!seen[i], "index {i} assigned twice (n={n}, t={t})");
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "coverage gap n={n} t={t}");
            }
        }
    }

    #[test]
    fn for_static_visits_all_indices_once() {
        let n = 1000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel(4, |ctx| {
            ctx.for_static(0..n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_executes_exactly_once_per_construct() {
        let count = AtomicUsize::new(0);
        parallel(8, |ctx| {
            for _ in 0..5 {
                ctx.single(|| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn single_returns_value_on_winner_only() {
        let winners = AtomicUsize::new(0);
        parallel(6, |ctx| {
            if ctx.single(|| 42) == Some(42) {
                winners.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn barrier_orders_phases() {
        // Phase 1 writes; barrier; phase 2 reads — the reads must observe
        // every phase-1 write.
        let n = 128;
        let buf = crate::SharedSlice::<u64>::zeroed(n);
        let sum = AtomicUsize::new(0);
        parallel(4, |ctx| {
            ctx.for_static(0..n, |i| unsafe { buf.write(i, i as u64) });
            ctx.barrier();
            let mut local = 0usize;
            ctx.for_static(0..n, |i| {
                local += unsafe { buf.read(i) } as usize;
            });
            sum.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let hit = AtomicUsize::new(0);
        parallel(0, |_| {
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }
}
