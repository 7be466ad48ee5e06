//! Heterogeneous link delays: the paper's time model says only that a
//! transmission takes **at most** one time unit. These tests make that
//! concrete — random per-link delays, normalized by the slowest link —
//! and check that correctness and the Theorem 2/4 time bounds survive.

use homonym_rings::prelude::*;
use homonym_rings::ring::{catalog, generate};
use homonym_rings::sim::run_with_delays;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn uniform_delays_match_the_unit_delay_run() {
    // All links at d ticks is just a rescaled clock: normalized time must
    // equal the unit-delay run exactly.
    let ring = catalog::figure1_ring();
    let unit = run(&Ak::new(3), &ring, &mut RoundRobinSched::default(), RunOptions::default());
    for d in [2u64, 5, 9] {
        let delays = vec![d; ring.n()];
        let rep = run_with_delays(
            &Ak::new(3),
            &ring,
            &mut RoundRobinSched::default(),
            RunOptions::default(),
            &delays,
        );
        assert!(rep.clean());
        assert_eq!(rep.leader, unit.leader);
        assert_eq!(rep.metrics.time_units, unit.metrics.time_units, "d={d}");
        assert_eq!(rep.metrics.messages, unit.metrics.messages);
    }
}

#[test]
fn random_delays_respect_theorem2_time_bound() {
    let mut rng = StdRng::seed_from_u64(77);
    for &(n, k) in &[(6usize, 2usize), (9, 3), (12, 3)] {
        let ring = generate::random_exact_multiplicity(n, k, &mut rng);
        for trial in 0..5 {
            let delays: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=7)).collect();
            let rep = run_with_delays(
                &Ak::new(k),
                &ring,
                &mut RoundRobinSched::default(),
                RunOptions::default(),
                &delays,
            );
            assert!(rep.clean(), "{ring:?} trial={trial}");
            assert_eq!(rep.leader, ring.true_leader());
            // normalized time still under (2k+2)n: slower links only help.
            let bound = (2 * k as u64 + 2) * n as u64;
            assert!(
                rep.metrics.time_units <= bound,
                "{ring:?} delays={delays:?}: {} > {bound}",
                rep.metrics.time_units
            );
        }
    }
}

#[test]
fn random_delays_respect_bk_envelope() {
    let mut rng = StdRng::seed_from_u64(78);
    let ring = generate::random_exact_multiplicity(8, 2, &mut rng);
    let delays: Vec<u64> = (0..8).map(|_| rng.gen_range(1..=4)).collect();
    let rep = run_with_delays(
        &Bk::new(2),
        &ring,
        &mut RoundRobinSched::default(),
        RunOptions::default(),
        &delays,
    );
    assert!(rep.clean());
    assert_eq!(rep.leader, ring.true_leader());
    let bound = 3u64 * 3 * 8 * 8;
    assert!(rep.metrics.time_units <= bound);
}

#[test]
fn slower_links_never_change_the_outcome_only_the_clock() {
    // Confluence again, now across *timing* variations: delays affect
    // virtual time but never the leader or the message count.
    let mut rng = StdRng::seed_from_u64(79);
    let ring = generate::random_a_inter_kk(10, 3, 4, &mut rng).unwrap();
    let baseline = run(&Ak::new(3), &ring, &mut RoundRobinSched::default(), RunOptions::default());
    for trial in 0..10 {
        let delays: Vec<u64> = (0..10).map(|_| rng.gen_range(1..=9)).collect();
        let rep = run_with_delays(
            &Ak::new(3),
            &ring,
            &mut RandomSched::new(trial),
            RunOptions::default(),
            &delays,
        );
        assert!(rep.clean());
        assert_eq!(rep.leader, baseline.leader);
        assert_eq!(rep.metrics.messages, baseline.metrics.messages);
    }
}

#[test]
fn delay_configuration_is_validated() {
    use homonym_rings::sim::Network;
    let ring = catalog::ring_122();
    let mut net: Network<homonym_rings::core::AkProc> = Network::new(&Ak::new(2), &ring);
    // wrong arity
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        net.set_link_delays(&[1, 2]);
    }));
    assert!(r.is_err());
    // zero delay
    let mut net: Network<homonym_rings::core::AkProc> = Network::new(&Ak::new(2), &ring);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        net.set_link_delays(&[1, 0, 1]);
    }));
    assert!(r.is_err());
}
