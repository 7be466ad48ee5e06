//! Property-based integration tests: randomized rings × randomized
//! schedules, checking the specification, the elected leader, confluence,
//! and the theorems' bounds on every sample.

use homonym_rings::prelude::*;
use homonym_rings::ring::generate;
use homonym_rings::sim::explore;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_ring_and_k() -> impl Strategy<Value = (RingLabeling, usize)> {
    (3usize..14, 2usize..5, any::<u64>()).prop_map(|(n, k, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let alphabet = (n.div_ceil(k) as u64 + 2).max(3);
        (generate::random_a_inter_kk(n, k, alphabet, &mut rng).unwrap(), k)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ak: clean under a random schedule, elects the true leader, respects
    /// all Theorem 2 bounds.
    #[test]
    fn ak_spec_and_bounds((ring, k) in arb_ring_and_k(), sched_seed in any::<u64>()) {
        let rep = run(&Ak::new(k), &ring, &mut RandomSched::new(sched_seed), RunOptions::default());
        prop_assert!(rep.clean(), "{:?} {:?}", rep.verdict, rep.violations);
        prop_assert_eq!(rep.leader, ring.true_leader());
        let (n, k64, b) = (ring.n() as u64, k as u64, ring.label_bits() as u64);
        prop_assert!(rep.metrics.time_units <= (2 * k64 + 2) * n);
        prop_assert!(rep.metrics.messages <= n * n * (2 * k64 + 1) + n);
        prop_assert!(rep.metrics.peak_space_bits <= (2 * k64 + 1) * n * b + 2 * b + 3);
    }

    /// Bk: same, against the Theorem 4 envelope, and never deadlocks.
    #[test]
    fn bk_spec_and_bounds((ring, k) in arb_ring_and_k(), sched_seed in any::<u64>()) {
        let rep = run(&Bk::new(k), &ring, &mut RandomSched::new(sched_seed), RunOptions::default());
        prop_assert!(rep.clean(), "{:?} {:?}", rep.verdict, rep.violations);
        prop_assert_eq!(rep.leader, ring.true_leader());
        prop_assert!(rep.verdict != Verdict::Deadlock);
        let (n, k64) = (ring.n() as u64, k as u64);
        prop_assert!(rep.metrics.time_units <= (k64 + 1) * (k64 + 1) * n * n);
        prop_assert!(rep.metrics.messages <= 4 * (k64 + 1) * (k64 + 1) * n * n);
    }

    /// Confluence: two different random schedules produce identical
    /// leaders, message counts, and virtual times.
    #[test]
    fn confluence_across_schedules((ring, k) in arb_ring_and_k(), s1 in any::<u64>(), s2 in any::<u64>()) {
        let a = run(&Ak::new(k), &ring, &mut RandomSched::new(s1), RunOptions::default());
        let b = run(&Ak::new(k), &ring, &mut RandomSched::new(s2), RunOptions::default());
        prop_assert_eq!(a.leader, b.leader);
        prop_assert_eq!(a.metrics.messages, b.metrics.messages);
        prop_assert_eq!(a.metrics.time_units, b.metrics.time_units);
        prop_assert_eq!(a.metrics.peak_space_bits, b.metrics.peak_space_bits);
    }

    /// Per-process receive streams are schedule-invariant (the stronger
    /// form of confluence used by the Lemma 1 machinery).
    #[test]
    fn receive_streams_are_schedule_invariant((ring, k) in arb_ring_and_k(), s1 in any::<u64>()) {
        let opts = RunOptions { record_trace: true, ..Default::default() };
        let a = run(&Bk::new(k), &ring, &mut RandomSched::new(s1), opts);
        let b = run(&Bk::new(k), &ring, &mut SyncSched, opts);
        let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
        for p in 0..ring.n() {
            prop_assert_eq!(ta.received_stream(p), tb.received_stream(p), "process {}", p);
        }
    }

    /// Lemma 1 empirically: on K1 rings, both algorithms' synchronous
    /// executions take at least 1 + (k-2)n steps.
    #[test]
    fn lemma1_bound_randomized(n in 3usize..10, k in 2usize..5, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = generate::random_k1(n, &mut rng);
        let bound = 1 + (k as u64 - 2) * n as u64;
        let ak = run(&Ak::new(k), &base, &mut SyncSched, RunOptions::default());
        prop_assert!(ak.clean());
        prop_assert!(ak.metrics.steps >= bound, "Ak {} < {}", ak.metrics.steps, bound);
        let bk = run(&Bk::new(k), &base, &mut SyncSched, RunOptions::default());
        prop_assert!(bk.clean());
        prop_assert!(bk.metrics.steps >= bound, "Bk {} < {}", bk.metrics.steps, bound);
    }

    /// The model checker's terminal configuration agrees with a sampled
    /// run: exhaustive exploration and scheduler-driven execution name the
    /// same leader (small rings only — the explorer enumerates everything).
    #[test]
    fn explorer_and_run_agree(n in 3usize..5, seed in any::<u64>(), sched_seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ring = generate::random_a_inter_kk(n, n, 3, &mut rng).unwrap();
        let k = ring.max_multiplicity();
        let rep = run(&Ak::new(k), &ring, &mut RandomSched::new(sched_seed), RunOptions::default());
        prop_assert!(rep.clean());
        let exp = explore(&Ak::new(k), &ring, 500_000);
        prop_assert!(exp.verified(), "{:?}", exp);
        prop_assert_eq!(exp.terminal_leader, rep.leader);
    }

    /// Message conservation: every sent message is received exactly once.
    #[test]
    fn message_conservation((ring, k) in arb_ring_and_k()) {
        let opts = RunOptions { record_trace: true, ..Default::default() };
        let rep = run(&Ak::new(k), &ring, &mut RoundRobinSched::default(), opts);
        prop_assert!(rep.clean());
        let trace = rep.trace.unwrap();
        let received: u64 = (0..ring.n()).map(|p| trace.received_stream(p).len() as u64).sum();
        let sent: u64 = (0..ring.n()).map(|p| trace.sent_stream(p).len() as u64).sum();
        prop_assert_eq!(received, rep.metrics.messages);
        prop_assert_eq!(sent, rep.metrics.messages);
        // JSON export: one line per event, parseable shape.
        let json = trace.to_json_lines();
        prop_assert_eq!(json.lines().count() as u64, rep.metrics.actions);
        for line in json.lines().take(5) {
            prop_assert!(line.starts_with('{') && line.ends_with('}'), "{}", line);
        }
    }
}
