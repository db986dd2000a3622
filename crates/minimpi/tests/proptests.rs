//! Property tests: every collective must match its sequential
//! reference semantics for arbitrary world sizes and payloads.

use minimpi::run;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bcast_delivers_root_value(size in 1usize..9, root_frac in 0.0f64..1.0,
                                 payload in prop::collection::vec(any::<i64>(), 0..32)) {
        let root = (root_frac * size as f64) as usize % size;
        let out = run(size, |comm| {
            let v = if comm.rank() == root { Some(payload.clone()) } else { None };
            comm.try_bcast(root, v).unwrap()
        });
        for got in out {
            prop_assert_eq!(&got, &payload);
        }
    }

    #[test]
    fn gather_and_allgather_preserve_rank_order(size in 1usize..9,
                                                base in any::<u32>()) {
        let out = run(size, |comm| {
            comm.try_gather(0, vec![base.wrapping_add(comm.rank() as u32)]).unwrap()
        });
        let expect: Vec<Vec<u32>> = (0..size).map(|r| vec![base.wrapping_add(r as u32)]).collect();
        prop_assert_eq!(out[0].clone(), Some(expect));
        for got in &out[1..] {
            prop_assert_eq!(got, &None);
        }
    }

    #[test]
    fn alltoallv_is_a_transpose(size in 1usize..7, seed in any::<u64>()) {
        // buffers[src][dst] content is a function of (src, dst); after the
        // exchange, received[dst][src] must hold the same function value.
        let content = |src: usize, dst: usize| -> Vec<u64> {
            let n = ((seed >> (src + dst)) % 5) as usize + 1;
            (0..n).map(|i| seed ^ ((src * 31 + dst * 17 + i) as u64)).collect()
        };
        let out = run(size, |comm| {
            let bufs: Vec<Vec<Vec<u64>>> =
                (0..size).map(|d| vec![content(comm.rank(), d)]).collect();
            comm.try_alltoallv_payload(bufs).unwrap()
        });
        for (dst, blocks) in out.into_iter().enumerate() {
            for (src, block) in blocks.into_iter().enumerate() {
                prop_assert_eq!(block, vec![content(src, dst)], "src={} dst={}", src, dst);
            }
        }
    }

    #[test]
    fn collective_sequences_stay_consistent(size in 2usize..6, rounds in 1usize..5) {
        // Interleave different collectives repeatedly: sequence-number
        // tagging must keep every round isolated.
        let out = run(size, |comm| {
            let mut acc = Vec::new();
            for r in 0..rounds {
                let root = r % size;
                let b = comm.try_bcast(root, (comm.rank() == root).then(|| vec![r * 100])).unwrap();
                let g = comm.try_gather(root, vec![r * 10 + comm.rank()]).unwrap();
                let bufs: Vec<Vec<Vec<usize>>> =
                    (0..size).map(|d| vec![vec![r, comm.rank(), d]]).collect();
                let a = comm.try_alltoallv_payload(bufs).unwrap();
                acc.push((b, g, a));
            }
            acc
        });
        for (rank, view) in out.iter().enumerate() {
            for (r, (b, g, a)) in view.iter().enumerate() {
                prop_assert_eq!(b, &vec![r * 100]);
                let expect_g: Vec<Vec<usize>> = (0..size).map(|k| vec![r * 10 + k]).collect();
                prop_assert_eq!(g.clone(), (rank == r % size).then_some(expect_g));
                let expect_a: Vec<Vec<Vec<usize>>> =
                    (0..size).map(|src| vec![vec![r, src, rank]]).collect();
                prop_assert_eq!(a, &expect_a);
            }
        }
    }
}
