//! Cross-crate integration: the full pipeline — generate a ring, run every
//! algorithm under every scheduler and on real threads, and check the
//! specification, the elected leader, and cross-runtime agreement.

use homonym_rings::prelude::*;
use homonym_rings::ring::generate;
use homonym_rings::runtime::{run_threaded, ThreadedReport};
use homonym_rings::sim::Scheduler;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn all_schedulers(n: usize) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(SyncSched),
        Box::new(RoundRobinSched::default()),
        Box::new(RandomSched::new(11)),
        Box::new(RandomSched::new(222)),
        Box::new(AdversarialSched { strategy: Adversary::LowestFirst }),
        Box::new(AdversarialSched { strategy: Adversary::HighestFirst }),
        Box::new(AdversarialSched { strategy: Adversary::Starve(n / 2) }),
    ]
}

#[test]
fn ak_and_bk_agree_across_schedulers_and_runtimes() {
    let mut rng = StdRng::seed_from_u64(2024);
    for &(n, k, a) in &[(6usize, 2usize, 4u64), (9, 3, 4), (12, 3, 5), (15, 4, 4)] {
        let ring = generate::random_a_inter_kk(n, k, a, &mut rng).unwrap();
        let expected = ring.true_leader().unwrap();

        for mut sched in all_schedulers(n) {
            let ak = run(&Ak::new(k), &ring, &mut sched, RunOptions::default());
            assert!(ak.clean(), "Ak {ring:?} {}: {:?}", sched.name(), ak.violations);
            assert_eq!(ak.leader, Some(expected), "Ak {ring:?} {}", sched.name());

            let bk = run(&Bk::new(k.max(2)), &ring, &mut sched, RunOptions::default());
            assert!(bk.clean(), "Bk {ring:?} {}: {:?}", sched.name(), bk.violations);
            assert_eq!(bk.leader, Some(expected), "Bk {ring:?} {}", sched.name());
        }

        // Real threads agree with the simulator.
        let thr: ThreadedReport = run_threaded(&Ak::new(k), &ring, ThreadedOptions::default());
        assert!(thr.clean());
        assert_eq!(thr.leader(), Some(expected));
    }
}

#[test]
fn oracle_and_core_algorithms_elect_the_same_process() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..8 {
        let ring = generate::random_a_inter_kk(10, 3, 4, &mut rng).unwrap();
        let ak = run(&Ak::new(3), &ring, &mut RoundRobinSched::default(), RunOptions::default());
        let oracle =
            run(&OracleN::new(10), &ring, &mut RoundRobinSched::default(), RunOptions::default());
        assert!(ak.clean() && oracle.clean());
        assert_eq!(ak.leader, oracle.leader, "{ring:?}");
    }
}

#[test]
fn identified_baselines_work_where_core_algorithms_also_work() {
    // On K1 rings all five algorithms solve the election (with different
    // winners by design). Their runs must all be clean.
    let mut rng = StdRng::seed_from_u64(77);
    let ring = generate::random_k1(12, &mut rng);
    assert!(
        run(&ChangRoberts, &ring, &mut RoundRobinSched::default(), RunOptions::default()).clean()
    );
    assert!(run(&Peterson, &ring, &mut RoundRobinSched::default(), RunOptions::default()).clean());
    assert!(run(&OracleN::new(12), &ring, &mut RoundRobinSched::default(), RunOptions::default())
        .clean());
    assert!(run(&Ak::new(1), &ring, &mut RoundRobinSched::default(), RunOptions::default()).clean());
    assert!(run(&Bk::new(2), &ring, &mut RoundRobinSched::default(), RunOptions::default()).clean());
}

#[test]
fn the_papers_remark_ring_122_beats_other_models() {
    // Section I closing remark: (1,2,2) is solvable with k and orientation
    // knowledge, although n-based models cannot handle it.
    let ring = RingLabeling::from_raw(&[1, 2, 2]);
    let c = classify(&ring);
    assert!(c.in_a_inter_kk(2));
    let ak = run(&Ak::new(2), &ring, &mut RoundRobinSched::default(), RunOptions::default());
    assert!(ak.clean());
    assert_eq!(ak.leader, Some(0)); // the unique label-1 process
    let bk = run(&Bk::new(2), &ring, &mut RoundRobinSched::default(), RunOptions::default());
    assert!(bk.clean());
    assert_eq!(bk.leader, Some(0));
    // Chang–Roberts, which needs unique labels, fails here: both label-2
    // processes behave identically... actually label 2 > 1, and only one
    // label-2 token survives a full turn at *each* label-2 process.
    let cr = run(&ChangRoberts, &ring, &mut RoundRobinSched::default(), RunOptions::default());
    assert!(!cr.clean(), "homonyms must defeat Chang–Roberts");
}

#[test]
fn symmetric_rings_defeat_everything() {
    // On a symmetric ring no deterministic algorithm can elect; our
    // algorithms never falsely claim success (they simply never produce a
    // clean single-leader outcome).
    let ring = generate::symmetric_ring(&[1, 2], 3); // 1,2,1,2,1,2
    let opts = RunOptions { max_actions: 200_000, ..Default::default() };
    let ak = run(&Ak::new(3), &ring, &mut RoundRobinSched::default(), opts);
    assert!(!ak.clean(), "Ak must not elect on a symmetric ring");
    let bk = run(&Bk::new(3), &ring, &mut RoundRobinSched::default(), opts);
    assert!(!bk.clean(), "Bk must not elect on a symmetric ring");
}

#[test]
fn report_metadata_is_populated() {
    let ring = RingLabeling::from_raw(&[1, 2, 2]);
    let rep = run(&Ak::new(2), &ring, &mut RandomSched::new(9), RunOptions::default());
    assert_eq!(rep.algorithm, "Ak(k=2)");
    assert!(rep.scheduler.starts_with("random(seed=9"));
    assert_eq!(rep.metrics.n, 3);
    assert!(rep.metrics.messages > 0);
    assert!(rep.metrics.time_units > 0);
}
