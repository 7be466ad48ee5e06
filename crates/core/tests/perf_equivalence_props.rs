//! Property tests pinning the optimized simulation stack to the
//! paper-literal oracle.
//!
//! The perf work changed three things that must not be observable:
//! `Ak` grew a zero-copy prefix-string window over the shared ring
//! labeling, the engine moved to pooled links with move-based dispatch,
//! and traces are accumulated in place. Both engines keep their enabled
//! lists sorted ascending, so any deterministic scheduler makes the same
//! decisions on both — which makes *trace-level* comparison meaningful:
//! the same leader is not enough, we require byte-identical per-process
//! message streams and identical metrics (messages, time, steps, wire
//! bits, peak space) on random asymmetric rings (n ≤ 7, alphabet ≤ 3)
//! under seeded random and adversarial schedulers.

use hre_core::{Ak, AkReference, Bk};
use hre_ring::{generate, RingLabeling};
use hre_sim::baseline::run_baseline;
use hre_sim::{run, AdversarialSched, Adversary, RandomSched, RunOptions, RunReport};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rec() -> RunOptions {
    RunOptions { record_trace: true, ..RunOptions::default() }
}

/// Random asymmetric rings, n ≤ 7 over an alphabet of at most 3 labels —
/// small enough that elections are instant, rich enough to exercise
/// homonyms (and hence the window-to-owned fallback paths).
fn arb_ring() -> impl Strategy<Value = RingLabeling> {
    (3usize..=7, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generate::random_a_inter_kk(n, n, 3, &mut rng).unwrap()
    })
}

/// The adversarial schedulers are deterministic, so they too must drive
/// both engines identically.
fn arb_adversary() -> impl Strategy<Value = Adversary> {
    (0usize..9).prop_map(|i| match i {
        7 => Adversary::LowestFirst,
        8 => Adversary::HighestFirst,
        p => Adversary::Starve(p),
    })
}

/// Per-process received/sent streams, `Debug`-rendered so stream equality
/// is byte equality even for message types without `Eq`.
fn streams<M: std::fmt::Debug + Clone>(rep: &RunReport<M>) -> Vec<String> {
    let t = rep.trace.as_ref().expect("recorded run");
    (0..rep.metrics.n)
        .map(|p| format!("r{:?}s{:?}", t.received_stream(p), t.sent_stream(p)))
        .collect()
}

/// Asserts two recorded reports are observably identical, step for step.
fn assert_identical<A, B>(oracle: &RunReport<A>, fast: &RunReport<B>) -> Result<(), TestCaseError>
where
    A: std::fmt::Debug + Clone,
    B: std::fmt::Debug + Clone,
{
    prop_assert!(oracle.clean(), "oracle violations: {:?}", oracle.violations);
    prop_assert!(fast.clean(), "optimized violations: {:?}", fast.violations);
    prop_assert_eq!(oracle.leader, fast.leader);
    prop_assert_eq!(&oracle.metrics, &fast.metrics);
    prop_assert_eq!(streams(oracle), streams(fast));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Optimized engine + optimized `Ak` vs frozen baseline engine +
    /// paper-literal `AkReference`, seeded random scheduler: identical
    /// leader, metrics, and per-process message streams.
    #[test]
    fn ak_matches_oracle_under_random_scheduler(ring in arb_ring(), s in any::<u64>()) {
        let k = ring.max_multiplicity();
        let oracle = run_baseline(&AkReference::new(k), &ring, &mut RandomSched::new(s), rec());
        let fast = run(&Ak::new(k), &ring, &mut RandomSched::new(s), rec());
        assert_identical(&oracle, &fast)?;
    }

    /// Same comparison under the adversarial schedulers (starvation and
    /// index-biased orders) — the schedules that force `Ak`'s prefix
    /// window onto its materialize-to-owned fallback most often.
    #[test]
    fn ak_matches_oracle_under_adversarial_scheduler(
        ring in arb_ring(),
        adv in arb_adversary(),
    ) {
        let k = ring.max_multiplicity();
        let strategy = match adv {
            Adversary::Starve(p) => Adversary::Starve(p % ring.n()),
            other => other,
        };
        let oracle = run_baseline(
            &AkReference::new(k),
            &ring,
            &mut AdversarialSched { strategy },
            rec(),
        );
        let fast = run(&Ak::new(k), &ring, &mut AdversarialSched { strategy }, rec());
        assert_identical(&oracle, &fast)?;
    }

    /// `Bk` is byte-for-byte unchanged by the engine swap: frozen baseline
    /// engine vs pooled engine, same algorithm, same seeded scheduler.
    #[test]
    fn bk_traces_survive_the_engine_swap(ring in arb_ring(), s in any::<u64>()) {
        let k = ring.max_multiplicity().max(2);
        let old = run_baseline(&Bk::new(k), &ring, &mut RandomSched::new(s), rec());
        let new = run(&Bk::new(k), &ring, &mut RandomSched::new(s), rec());
        assert_identical(&old, &new)?;
    }
}
