//! Deeper cross-crate checks of the paper's quantitative theory — the
//! claims that tie the measured behavior to the closed forms, beyond the
//! per-crate unit tests.

use homonym_rings::analysis::{lower_bound, reconstruct_phases};
use homonym_rings::prelude::*;
use homonym_rings::ring::generate;
use homonym_rings::words::lyndon_rotation;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Corollary 2's other face: `Ak` is *asymptotically optimal* — its
/// synchronous step count on `K1` rings is `Θ(kn)`: between the Lemma 1
/// floor and a small constant multiple of `kn`.
#[test]
fn ak_is_within_constant_factor_of_the_lower_bound() {
    let mut rng = StdRng::seed_from_u64(101);
    for n in [6usize, 12, 24] {
        let base = generate::random_k1(n, &mut rng);
        for k in 2..=5usize {
            let row = lower_bound::lower_bound_row(&Ak::new(k), &base, k);
            assert!(row.clean && row.respects_bound, "{row:?}");
            // Θ(kn): measured steps ≤ c·kn with a small c (the analysis
            // gives (2k+2)n + O(n); c = 4 is comfortable).
            let kn = (k * n) as u64;
            assert!(row.measured_steps <= 4 * kn + 8, "{row:?}");
        }
    }
}

/// `Bk`'s phase count equals the paper's `X` exactly:
/// `X = min{x : LLabels(L)_x contains L.id (k+1) times}` — computed here
/// independently from the labeling and compared with the instrumented run.
#[test]
fn bk_phase_count_matches_x_formula() {
    let mut rng = StdRng::seed_from_u64(103);
    for _ in 0..10 {
        let ring = generate::random_a_inter_kk(9, 3, 4, &mut rng).unwrap();
        let k = ring.max_multiplicity().max(2);
        let table = reconstruct_phases(&ring, k);
        let leader = table.leader;
        let lid = ring.label(leader);
        let mut count = 0;
        let mut x = 0u64;
        for m in 1..10_000usize {
            if ring.llabels(leader, m)[m - 1] == lid {
                count += 1;
                if count == k + 1 {
                    x = m as u64;
                    break;
                }
            }
        }
        assert!(x > 0);
        assert_eq!(table.leader_phases, x, "{ring:?}");
        // and X <= (k+1) n as the proof of Theorem 4 uses
        assert!(x <= ((k + 1) * ring.n()) as u64);
    }
}

/// Every process's final `leader` variable equals the first letter of the
/// Lyndon rotation of its own full-turn sequence — the exact expression
/// `LW(srp(p.string))[1]` from action A4.
#[test]
fn a4_leader_expression_is_globally_consistent() {
    let mut rng = StdRng::seed_from_u64(107);
    for _ in 0..6 {
        let ring = generate::random_a_inter_kk(8, 2, 5, &mut rng).unwrap();
        let rep = run(&Ak::new(2), &ring, &mut RandomSched::new(1), RunOptions::default());
        assert!(rep.clean());
        let leader_label = ring.label(rep.leader.unwrap());
        for p in 0..ring.n() {
            let lw = lyndon_rotation(&ring.llabels_n(p));
            assert_eq!(lw[0], leader_label, "{ring:?} p={p}");
        }
    }
}

/// Time-unit identity: on `K1` rings the `Ak` decision wavefront needs
/// `(2k+1)n ± n` time units (every label has multiplicity 1, so the paper's
/// `m = ⌈(2k+1)/M⌉·n` is exactly `(2k+1)n`); with the FINISH turn the total
/// sits in `((2k+1)n, (2k+2)n]`.
#[test]
fn ak_time_on_k1_is_pinned_to_the_formula() {
    let mut rng = StdRng::seed_from_u64(109);
    for n in [6usize, 10, 16] {
        let base = generate::random_k1(n, &mut rng);
        for k in 1..=3usize {
            let rep = run(&Ak::new(k), &base, &mut SyncSched, RunOptions::default());
            assert!(rep.clean());
            let t = rep.metrics.time_units;
            let lo = ((2 * k + 1) * n) as u64 - n as u64; // generous floor
            let hi = ((2 * k + 2) * n) as u64;
            assert!(t > lo && t <= hi, "n={n} k={k}: t={t} not in ({lo}, {hi}]");
        }
    }
}

/// The wire-bit metric decomposes as messages×(b+1) minus the FINISH
/// discount for `Ak` (FINISH is 1 bit, tokens are b+1): exactly
/// `wire = (msgs − n)·(b+1) + n` on a clean run with n FINISH messages.
#[test]
fn ak_wire_bits_closed_form() {
    let mut rng = StdRng::seed_from_u64(113);
    let ring = generate::random_a_inter_kk(10, 3, 4, &mut rng).unwrap();
    let rep = run(&Ak::new(3), &ring, &mut RoundRobinSched::default(), RunOptions::default());
    assert!(rep.clean());
    let b = ring.label_bits() as u64;
    let n = ring.n() as u64;
    let expect = (rep.metrics.messages - n) * (b + 1) + n;
    assert_eq!(rep.metrics.wire_bits, expect);
}

/// Peterson vs Chang–Roberts crossover: on descending rings (CR's worst
/// case) Peterson wins for large n; on ascending rings (CR's best case) CR
/// wins — the classic trade-off between worst-case-optimal and simple.
#[test]
fn peterson_chang_roberts_crossover() {
    for n in [32u64, 64] {
        let desc: Vec<u64> = (1..=n).rev().collect();
        let asc: Vec<u64> = (1..=n).collect();
        let cr_desc = run(
            &ChangRoberts,
            &RingLabeling::from_raw(&desc),
            &mut RoundRobinSched::default(),
            RunOptions::default(),
        );
        let pe_desc = run(
            &Peterson,
            &RingLabeling::from_raw(&desc),
            &mut RoundRobinSched::default(),
            RunOptions::default(),
        );
        assert!(cr_desc.clean() && pe_desc.clean());
        assert!(
            pe_desc.metrics.messages < cr_desc.metrics.messages,
            "Peterson must beat CR's worst case at n={n}"
        );
        let cr_asc = run(
            &ChangRoberts,
            &RingLabeling::from_raw(&asc),
            &mut RoundRobinSched::default(),
            RunOptions::default(),
        );
        let pe_asc = run(
            &Peterson,
            &RingLabeling::from_raw(&asc),
            &mut RoundRobinSched::default(),
            RunOptions::default(),
        );
        assert!(cr_asc.clean() && pe_asc.clean());
        assert!(
            cr_asc.metrics.messages < pe_asc.metrics.messages,
            "CR must beat Peterson on its best case at n={n}"
        );
    }
}
