//! The static worksharing team: one scoped thread per output block.

use std::ops::Range;

/// The contiguous block of `0..n` owned by thread `h` of `t` under the
/// default static schedule: ceil-divided chunks, front-loaded.
fn static_block(n: usize, h: usize, t: usize) -> Range<usize> {
    debug_assert!(h < t);
    let chunk = n.div_ceil(t.max(1));
    let start = (h * chunk).min(n);
    let end = ((h + 1) * chunk).min(n);
    start..end
}

/// `#pragma omp parallel for schedule(static) num_threads(threads)` over
/// the `out.len() / per_item` items of `out`, each item owning
/// `per_item` consecutive elements.
///
/// Thread `h` owns the items of its static block and receives them
/// together with the `&mut` sub-slice of `out` that holds them, so the
/// block it writes is the block it owns. Only non-empty blocks run,
/// each on a scoped thread joined before this returns; with
/// `threads <= 1` the one block runs inline on the caller's thread, and
/// an empty `out` runs nothing.
///
/// # Panics
/// If `per_item` is zero or does not divide `out.len()`, or if `f`
/// panics on any thread.
pub fn for_blocks<T, F>(threads: usize, out: &mut [T], per_item: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert!(
        per_item > 0 && out.len().is_multiple_of(per_item),
        "{} elements are not whole items of {per_item}",
        out.len()
    );
    let n = out.len() / per_item;
    if n == 0 {
        return;
    }
    let threads = threads.max(1);
    if threads == 1 {
        f(0..n, out);
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = out;
        for h in 0..threads {
            let items = static_block(n, h, threads);
            // front-loaded: once one block is empty, so are the rest
            if items.is_empty() {
                break;
            }
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(items.len() * per_item);
            rest = tail;
            let f = &f;
            scope.spawn(move || f(items, mine));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

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
        let mut hits = vec![0u32; 1000];
        for_blocks(4, &mut hits, 1, |_, out| {
            for h in out {
                *h += 1;
            }
        });
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let calls = Mutex::new(Vec::new());
        for_blocks(0, &mut [0u8; 5], 1, |items, _| {
            calls
                .lock()
                .unwrap()
                .push((items, std::thread::current().id()));
        });
        assert_eq!(
            calls.into_inner().unwrap(),
            vec![(0..5, std::thread::current().id())]
        );
    }

    #[test]
    #[should_panic(expected = "not whole items of 3")]
    fn a_partial_item_is_rejected() {
        for_blocks(2, &mut [0u8; 7], 3, |_, _| {});
    }

    /// One closure call: the items it was handed and the thread it ran on.
    type Call = (Range<usize>, ThreadId);

    /// Run `for_blocks` over `n` items of `per_item` elements, each
    /// element recording which item wrote it and how often.
    fn run(n: usize, t: usize, per_item: usize) -> (Vec<(usize, u32)>, Vec<Call>) {
        let mut out = vec![(usize::MAX, 0u32); n * per_item];
        let calls = Mutex::new(Vec::new());
        for_blocks(t, &mut out, per_item, |items, block| {
            assert_eq!(block.len(), items.len() * per_item);
            for (k, slot) in block.iter_mut().enumerate() {
                *slot = (items.start + k / per_item, slot.1 + 1);
            }
            calls
                .lock()
                .unwrap()
                .push((items, std::thread::current().id()));
        });
        let mut calls = calls.into_inner().unwrap();
        calls.sort_by_key(|(items, _)| items.start);
        (out, calls)
    }

    proptest! {
        #[test]
        fn every_element_is_written_once_by_its_item(
            n in 0usize..200, t in 1usize..20, per_item in 1usize..4,
        ) {
            let (out, _) = run(n, t, per_item);
            for (e, &(item, writes)) in out.iter().enumerate() {
                prop_assert_eq!(writes, 1, "element {} written {} times", e, writes);
                prop_assert_eq!(item, e / per_item);
            }
        }

        #[test]
        fn each_item_runs_on_the_thread_of_its_static_block(
            n in 0usize..200, t in 1usize..20, per_item in 1usize..4,
        ) {
            let (_, calls) = run(n, t, per_item);
            let blocks: Vec<Range<usize>> =
                (0..t).map(|h| static_block(n, h, t)).filter(|b| !b.is_empty()).collect();
            let handed: Vec<Range<usize>> = calls.iter().map(|(b, _)| b.clone()).collect();
            prop_assert_eq!(handed, blocks);
            // one closure call per block, each on a thread of its own
            let threads: HashSet<ThreadId> = calls.iter().map(|&(_, id)| id).collect();
            prop_assert_eq!(threads.len(), calls.len());
            if t == 1 {
                prop_assert!(calls.iter().all(|&(_, id)| id == std::thread::current().id()));
            }
        }

        #[test]
        fn no_thread_runs_for_no_items(t in 1usize..20, per_item in 1usize..4) {
            let (_, calls) = run(0, t, per_item);
            prop_assert!(calls.is_empty());
        }
    }

    /// Threads that would own an empty block are not spawned: the closure
    /// runs once per non-empty block, `min(t, ceil(n / ceil(n/t)))` times.
    #[test]
    fn only_non_empty_blocks_run() {
        // n = 10, t = 6: blocks of 2 leave thread 5 with nothing
        for (n, t, runs) in [
            (10, 6, 5),
            (3, 16, 3),
            (7, 7, 7),
            (100, 8, 8),
            (1, 2, 1),
            (5, 1, 1),
        ] {
            assert_eq!(run(n, t, 1).1.len(), runs, "n={n} t={t}");
            assert_eq!(runs, t.min(n.div_ceil(n.div_ceil(t))));
        }
    }
}
