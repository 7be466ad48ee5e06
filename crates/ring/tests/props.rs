//! Property tests for ring-level facts, including the paper's Lemma 5 and
//! Lemma 6 — the combinatorial heart of Algorithm `Ak`.

use hre_ring::{classify, generate, RingLabeling};
use hre_words::{has_label_with_count, lyndon_rotation, srp, srp_len};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_asymmetric_ring() -> impl Strategy<Value = RingLabeling> {
    (2usize..12, 2u64..5, any::<u64>()).prop_map(|(n, alphabet, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generate::random_a_inter_kk(n, n, alphabet, &mut rng).unwrap()
    })
}

proptest! {
    /// Lemma 5: for an asymmetric ring and any m >= 2n,
    /// |srp(LLabels(p)_m)| = n, for every process p.
    #[test]
    fn lemma5_srp_length_is_n(ring in arb_asymmetric_ring(), extra in 0usize..10) {
        let n = ring.n();
        let m = 2 * n + extra;
        for i in 0..n {
            let seq = ring.llabels(i, m);
            prop_assert_eq!(srp_len(&seq), n, "ring={:?} i={}", ring, i);
        }
    }

    /// Lemma 6: if LLabels(p)_m contains 2k+1 copies of some label (k = the
    /// ring's actual max multiplicity bound), the ring is fully determined:
    /// srp gives exactly LLabels(p)_n, hence n and the whole labeling.
    #[test]
    fn lemma6_ring_fully_determined(ring in arb_asymmetric_ring()) {
        let n = ring.n();
        let k = ring.max_multiplicity();
        for i in 0..n {
            // find the smallest m at which some label reaches 2k+1 copies
            let mut m = 1;
            loop {
                let seq = ring.llabels(i, m);
                if has_label_with_count(&seq, 2 * k + 1) {
                    prop_assert_eq!(srp(&seq), &ring.llabels_n(i)[..]);
                    break;
                }
                m += 1;
                prop_assert!(m <= (2 * k + 1) * n, "termination bound exceeded");
            }
        }
    }

    /// The proof of Lemma 6's first step: at most k copies of any label in a
    /// window of length n, hence at most 2k in length 2n.
    #[test]
    fn window_occurrence_bound(ring in arb_asymmetric_ring(), start in 0usize..12) {
        let n = ring.n();
        let k = ring.max_multiplicity();
        let w1 = ring.llabels(start % n, n);
        let w2 = ring.llabels(start % n, 2 * n);
        for l in ring.labels() {
            prop_assert!(hre_words::occurrences(&w1, l) <= k);
            prop_assert!(hre_words::occurrences(&w2, l) <= 2 * k);
        }
    }

    /// True-leader characterization: L's full-turn sequence is the Lyndon
    /// rotation of every other process's full-turn sequence.
    #[test]
    fn true_leader_is_lyndon_rotation_of_all(ring in arb_asymmetric_ring()) {
        let leader = ring.true_leader().unwrap();
        let lw = ring.llabels_n(leader);
        for i in 0..ring.n() {
            prop_assert_eq!(lyndon_rotation(&ring.llabels_n(i)), lw.clone());
        }
    }

    /// The true leader is invariant under re-indexing (rotation) of the ring.
    #[test]
    fn true_leader_label_rotation_invariant(ring in arb_asymmetric_ring(), d in 0usize..12) {
        let rot = ring.rotated(d);
        prop_assert_eq!(rot.true_leader_label(), ring.true_leader_label());
        // and the leader is the same physical process
        let n = ring.n();
        let l = ring.true_leader().unwrap();
        prop_assert_eq!(rot.true_leader().unwrap(), (l + n - (d % n)) % n);
    }

    /// classify() is consistent with the individual predicates.
    #[test]
    fn classify_consistent(ring in arb_asymmetric_ring()) {
        let c = classify(&ring);
        prop_assert_eq!(c.n, ring.n());
        prop_assert_eq!(c.asymmetric, ring.is_asymmetric());
        prop_assert_eq!(c.has_unique_label, ring.in_ustar());
        prop_assert_eq!(c.max_multiplicity, ring.max_multiplicity());
        prop_assert_eq!(c.true_leader, ring.true_leader());
        prop_assert!(c.in_kk(c.max_multiplicity));
        if c.max_multiplicity > 1 {
            prop_assert!(!c.in_kk(c.max_multiplicity - 1));
        }
    }

    /// The Lemma 1 construction always lands in U* ∩ Kk with the right size.
    #[test]
    fn lemma1_construction_class(n in 2usize..8, k in 1usize..5, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = generate::random_k1(n, &mut rng);
        let big = generate::lemma1_ring(&base, k);
        let c = classify(&big);
        prop_assert_eq!(c.n, k * n + 1);
        prop_assert!(c.in_ustar_inter_kk(k));
    }
}

/// Exhaustive (non-proptest) check of Lemma 5 on every asymmetric binary
/// and ternary labeling of length ≤ 6.
#[test]
fn lemma5_exhaustive_small() {
    for n in 2..=6usize {
        for alphabet in 2..=3u64 {
            for ring in hre_ring::enumerate::asymmetric_labelings(n, alphabet) {
                for i in 0..n {
                    assert_eq!(srp_len(&ring.llabels(i, 2 * n)), n, "{ring:?}");
                    assert_eq!(srp_len(&ring.llabels(i, 3 * n + 1)), n, "{ring:?}");
                }
            }
        }
    }
}

/// On symmetric rings srp of a 2n-window is a *proper divisor* period — the
/// reason the true leader is undefined there.
#[test]
fn symmetric_rings_srp_shorter_than_n() {
    for base in [&[1u64, 2][..], &[1, 2, 3][..], &[1, 1, 2][..]] {
        for times in 2..=3usize {
            let ring = generate::symmetric_ring(base, times);
            let n = ring.n();
            let p = srp_len(&ring.llabels(0, 2 * n));
            assert!(p < n);
            assert_eq!(n % p, 0);
        }
    }
}
