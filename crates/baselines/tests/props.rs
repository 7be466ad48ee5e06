//! Property tests for the baseline algorithms under randomized rings and
//! schedules.

use hre_baselines::{BnProc, BoundedN, ChangRoberts, MtAk, OracleN, Peterson};
use hre_ring::{generate, RingLabeling};
use hre_sim::{
    run, satisfies_message_terminating, Network, RandomSched, RoundRobinSched, RunOptions,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_k1_ring() -> impl Strategy<Value = RingLabeling> {
    (3usize..16, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generate::random_k1(n, &mut rng)
    })
}

fn arb_asym_ring() -> impl Strategy<Value = RingLabeling> {
    (3usize..12, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generate::random_a_inter_kk(n, n, 4, &mut rng).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chang–Roberts elects the maximum-labeled process on any K1 ring
    /// under any random schedule.
    #[test]
    fn chang_roberts_elects_max(ring in arb_k1_ring(), s in any::<u64>()) {
        let rep = run(&ChangRoberts, &ring, &mut RandomSched::new(s), RunOptions::default());
        prop_assert!(rep.clean(), "{:?}", rep.violations);
        let max = (0..ring.n()).max_by_key(|&i| ring.label(i)).unwrap();
        prop_assert_eq!(rep.leader, Some(max));
    }

    /// Peterson: clean on any K1 ring, within the 2n·(lg n + c) message
    /// budget.
    #[test]
    fn peterson_message_budget(ring in arb_k1_ring(), s in any::<u64>()) {
        let rep = run(&Peterson, &ring, &mut RandomSched::new(s), RunOptions::default());
        prop_assert!(rep.clean(), "{:?}", rep.violations);
        let n = ring.n() as u64;
        let lg = 64 - n.leading_zeros() as u64;
        prop_assert!(rep.metrics.messages <= 2 * n * (lg + 1) + 2 * n);
    }

    /// OracleN and BoundedN (with bounds tight enough to pin n) both elect
    /// the true leader of any asymmetric ring.
    #[test]
    fn knowledge_baselines_elect_true_leader(ring in arb_asym_ring(), s in any::<u64>()) {
        let n = ring.n();
        let oracle = run(&OracleN::new(n), &ring, &mut RandomSched::new(s), RunOptions::default());
        prop_assert!(oracle.clean(), "{:?}", oracle.violations);
        prop_assert_eq!(oracle.leader, ring.true_leader());

        let bounded = run(
            &BoundedN::new((n - 1).max(2), 2 * n - 1),
            &ring,
            &mut RandomSched::new(s),
            RunOptions::default(),
        );
        prop_assert!(bounded.clean(), "{:?}", bounded.violations);
        prop_assert_eq!(bounded.leader, ring.true_leader());
    }

    /// BoundedN refuses whenever the bounds admit a symmetric
    /// interpretation (M ≥ 2n), on every asymmetric ring.
    #[test]
    fn bounded_n_refusal_frontier(ring in arb_asym_ring()) {
        let n = ring.n();
        let algo = BoundedN::new(2.max(n / 2), 2 * n);
        let mut net: Network<BnProc> = Network::new(&algo, &ring);
        let mut guard = 0u64;
        while let Some(&i) = net.enabled_set().first() {
            net.fire(i);
            guard += 1;
            prop_assert!(guard < 20_000_000);
        }
        for i in 0..n {
            prop_assert!(net.process(i).declared_impossible(), "p{} on {:?}", i, ring);
            prop_assert!(net.election(i).halted);
        }
        prop_assert_eq!(net.in_flight(), 0);
    }

    /// MtAk: message-terminating spec holds, process-terminating spec does
    /// not, and the elected process is the true leader.
    #[test]
    fn mtak_separates_the_termination_notions(ring in arb_asym_ring(), s in any::<u64>()) {
        let k = ring.max_multiplicity();
        let rep = run(&MtAk::new(k), &ring, &mut RandomSched::new(s), RunOptions::default());
        prop_assert!(satisfies_message_terminating(&rep), "{:?}", rep.violations);
        prop_assert!(!rep.clean());
        prop_assert_eq!(rep.leader, ring.true_leader());
    }

    /// All K1-capable algorithms agree that a leader exists and that every
    /// process learns a consistent label, even though the winners differ.
    #[test]
    fn k1_algorithms_all_complete(ring in arb_k1_ring()) {
        let n = ring.n();
        prop_assert!(run(&ChangRoberts, &ring, &mut RoundRobinSched::default(), RunOptions::default()).clean());
        prop_assert!(run(&Peterson, &ring, &mut RoundRobinSched::default(), RunOptions::default()).clean());
        prop_assert!(run(&OracleN::new(n), &ring, &mut RoundRobinSched::default(), RunOptions::default()).clean());
    }
}
