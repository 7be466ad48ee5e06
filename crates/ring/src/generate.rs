//! Seeded random generators for each ring class, plus the paper's
//! adversarial constructions.
//!
//! All generators take an explicit `Rng`, so experiments are reproducible
//! from a printed seed.

use crate::RingLabeling;
use hre_words::Label;
use rand::seq::SliceRandom;
use rand::Rng;

/// A random fully-identified ring (`K1`): labels are a random permutation
/// of `n` distinct values drawn from `[0, 4n)`.
pub fn random_k1<R: Rng>(n: usize, rng: &mut R) -> RingLabeling {
    assert!(n >= 2);
    let mut pool: Vec<u64> = (0..4 * n as u64).collect();
    pool.shuffle(rng);
    pool.truncate(n);
    RingLabeling::from_raw(&pool)
}

/// A random asymmetric ring in `Kk` over an alphabet of `alphabet` labels.
///
/// Each position draws a label uniformly from those still used fewer
/// than `k` times, so every draw is already in `Kk`; draws that come out
/// symmetric are redrawn. Returns `Err` when the class is empty
/// (`alphabet < 2` for `n ≥ 2`, or `alphabet · k < n`).
pub fn random_a_inter_kk<R: Rng>(
    n: usize,
    k: usize,
    alphabet: u64,
    rng: &mut R,
) -> Result<RingLabeling, String> {
    assert!(n >= 2);
    assert!(k >= 1);
    if alphabet < 2 {
        return Err(format!("no asymmetric ring of n={n} over {alphabet} label(s)"));
    }
    if (alphabet as usize).saturating_mul(k) < n {
        return Err(format!(
            "no labeling of n={n} with multiplicity <= {k} over {alphabet} labels"
        ));
    }
    let mut counts = vec![0usize; alphabet as usize];
    for _ in 0..100_000 {
        counts.fill(0);
        let raw: Vec<u64> = (0..n)
            .map(|_| loop {
                let label = rng.gen_range(0..alphabet);
                if counts[label as usize] < k {
                    counts[label as usize] += 1;
                    break label;
                }
            })
            .collect();
        let ring = RingLabeling::from_raw(&raw);
        if ring.is_asymmetric() {
            return Ok(ring);
        }
    }
    Err(format!("no asymmetric ring found for n={n} k={k} alphabet={alphabet}"))
}

/// A random asymmetric ring whose maximum multiplicity is **exactly** `k`
/// (tightest member of `Kk`): `k` copies of one label plus distinct others,
/// shuffled until asymmetric. Requires `k < n` or (`k == n` impossible since
/// a constant ring is symmetric for `n ≥ 2`).
pub fn random_exact_multiplicity<R: Rng>(n: usize, k: usize, rng: &mut R) -> RingLabeling {
    assert!(n >= 2);
    assert!(k >= 1 && k < n, "k copies of one label in an asymmetric ring needs k < n");
    for _ in 0..100_000 {
        let mut raw: Vec<u64> = vec![0; k];
        raw.extend(1..=(n - k) as u64);
        raw.shuffle(rng);
        let ring = RingLabeling::from_raw(&raw);
        if ring.is_asymmetric() && ring.max_multiplicity() == k {
            return ring;
        }
    }
    panic!("could not build exact-multiplicity ring n={n} k={k}");
}

/// A random ring in `U* ∩ Kk`: exactly one guaranteed-unique label plus
/// homonym groups of size ≤ `k`.
pub fn random_ustar_inter_kk<R: Rng>(n: usize, k: usize, rng: &mut R) -> RingLabeling {
    assert!(n >= 2);
    assert!(k >= 1);
    for _ in 0..100_000 {
        // Label 0 is reserved unique; the other n-1 positions get labels
        // from {1, ..} each used at most k times.
        let mut raw = vec![0u64];
        let mut counts: Vec<usize> = Vec::new();
        for _ in 1..n {
            // pick an existing group with spare capacity or a fresh one
            let fresh = counts.is_empty() || rng.gen_bool(0.35);
            if fresh {
                counts.push(1);
                raw.push(counts.len() as u64);
            } else {
                let gi = rng.gen_range(0..counts.len());
                if counts[gi] < k {
                    counts[gi] += 1;
                    raw.push((gi + 1) as u64);
                } else {
                    counts.push(1);
                    raw.push(counts.len() as u64);
                }
            }
        }
        raw.shuffle(rng);
        let ring = RingLabeling::from_raw(&raw);
        if ring.in_ustar() && ring.in_kk(k) {
            debug_assert!(ring.is_asymmetric()); // U* ⊆ A
            return ring;
        }
    }
    panic!("could not build U* ∩ Kk ring n={n} k={k}");
}

/// A symmetric ring: the word `base` repeated `times ≥ 2` times. These are
/// the rings on which leader election is impossible for any algorithm.
pub fn symmetric_ring(base: &[u64], times: usize) -> RingLabeling {
    assert!(!base.is_empty());
    assert!(times >= 2, "a single copy need not be symmetric");
    let mut raw = Vec::with_capacity(base.len() * times);
    for _ in 0..times {
        raw.extend_from_slice(base);
    }
    RingLabeling::from_raw(&raw)
}

/// A **near-symmetric** ring: the word `base` repeated `times` times, with
/// the final label replaced by a fresh one. Asymmetric (the defect breaks
/// every rotation), but maximally confusable with a symmetric ring — the
/// hardest family for period detection, and the family where `BoundedN`'s
/// refusal region is widest.
pub fn near_symmetric_ring(base: &[u64], times: usize) -> RingLabeling {
    assert!(!base.is_empty());
    assert!(times >= 2);
    assert!(base.len() * times >= 2);
    let mut raw = Vec::with_capacity(base.len() * times);
    for _ in 0..times {
        raw.extend_from_slice(base);
    }
    let fresh = raw.iter().copied().max().unwrap() + 1;
    *raw.last_mut().unwrap() = fresh;
    let ring = RingLabeling::from_raw(&raw);
    debug_assert!(ring.is_asymmetric());
    ring
}

/// The **Lemma 1 construction** `R_{n,k}`: given a `K1` ring with labels
/// `l0 … l(n−1)`, builds the ring of `kn + 1` processes whose labels are the
/// sequence `l0 … l(n−1)` repeated `k` times, followed by a single fresh
/// label `X` not among the `li`.
///
/// `R_{n,k} ∈ U* ∩ Kk`, and its synchronous execution is indistinguishable
/// from the base ring's for processes that have not yet heard from `X` —
/// the engine of the paper's lower bound and impossibility proofs.
pub fn lemma1_ring(base: &RingLabeling, k: usize) -> RingLabeling {
    assert!(k >= 1);
    assert!(base.all_distinct(), "Lemma 1 starts from a K1 ring");
    let fresh = base.labels().iter().map(|l| l.raw()).max().unwrap() + 1;
    let mut labels: Vec<Label> = Vec::with_capacity(base.n() * k + 1);
    for _ in 0..k {
        labels.extend_from_slice(base.labels());
    }
    labels.push(Label::new(fresh));
    RingLabeling::new(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn random_k1_is_k1() {
        let mut r = rng(1);
        for n in 2..30 {
            let ring = random_k1(n, &mut r);
            assert_eq!(ring.n(), n);
            assert!(ring.all_distinct());
            assert!(ring.is_asymmetric());
        }
    }

    #[test]
    fn random_a_inter_kk_respects_class() {
        let mut r = rng(2);
        for &(n, k, a) in &[(5usize, 2usize, 3u64), (8, 3, 3), (12, 4, 4), (20, 5, 6)] {
            for _ in 0..20 {
                let ring = random_a_inter_kk(n, k, a, &mut r).unwrap();
                assert_eq!(ring.n(), n);
                assert!(ring.is_asymmetric());
                assert!(ring.in_kk(k));
            }
        }
    }

    #[test]
    fn exact_multiplicity_is_tight() {
        let mut r = rng(3);
        for &(n, k) in &[(5usize, 2usize), (9, 3), (12, 5), (16, 8)] {
            let ring = random_exact_multiplicity(n, k, &mut r);
            assert_eq!(ring.max_multiplicity(), k);
            assert!(ring.is_asymmetric());
        }
    }

    #[test]
    fn ustar_generator_always_has_unique_label() {
        let mut r = rng(4);
        for &(n, k) in &[(4usize, 2usize), (7, 3), (15, 4), (25, 2)] {
            for _ in 0..10 {
                let ring = random_ustar_inter_kk(n, k, &mut r);
                assert_eq!(ring.n(), n);
                assert!(ring.in_ustar());
                assert!(ring.in_kk(k));
                assert!(ring.is_asymmetric());
            }
        }
    }

    #[test]
    fn symmetric_ring_is_symmetric() {
        let ring = symmetric_ring(&[1, 2, 3], 2);
        assert_eq!(ring.n(), 6);
        assert!(!ring.is_asymmetric());
        assert!(symmetric_ring(&[7], 4).max_multiplicity() == 4);
    }

    #[test]
    fn near_symmetric_is_asymmetric_with_one_defect() {
        for base in [&[1u64, 2][..], &[1, 2, 3][..], &[5, 5, 7][..]] {
            for times in 2..=4usize {
                let ring = near_symmetric_ring(base, times);
                assert!(ring.is_asymmetric(), "{ring:?}");
                assert_eq!(ring.n(), base.len() * times);
                // the fresh defect label occurs exactly once
                let fresh = ring.labels().iter().max().unwrap();
                assert_eq!(ring.multiplicity(*fresh), 1, "{ring:?}");
                assert!(ring.in_ustar());
            }
        }
    }

    #[test]
    fn lemma1_ring_structure() {
        let mut r = rng(5);
        let base = random_k1(4, &mut r);
        let big = lemma1_ring(&base, 3);
        assert_eq!(big.n(), 13);
        assert!(big.in_ustar());
        assert!(big.in_kk(3));
        assert!(big.is_asymmetric());
        // the fresh label occurs exactly once, every base label k times
        let fresh = big.label(big.n() - 1);
        assert_eq!(big.multiplicity(fresh), 1);
        for l in base.labels() {
            assert_eq!(big.multiplicity(*l), 3);
        }
        // prefix structure: position j carries base label j mod n
        for j in 0..12 {
            assert_eq!(big.label(j), base.label(j % 4));
        }
    }

    #[test]
    fn lemma1_rejects_non_k1_base() {
        let base = RingLabeling::from_raw(&[1, 1, 2]);
        let result = std::panic::catch_unwind(|| lemma1_ring(&base, 2));
        assert!(result.is_err());
    }

    #[test]
    fn generators_are_deterministic_from_seed() {
        let a = random_a_inter_kk(10, 3, 4, &mut rng(42)).unwrap();
        let b = random_a_inter_kk(10, 3, 4, &mut rng(42)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn a_inter_kk_reports_an_empty_class() {
        assert!(random_a_inter_kk(5, 2, 2, &mut rng(0)).is_err());
        assert!(random_a_inter_kk(4, 4, 1, &mut rng(0)).is_err());
    }
}
