//! E14 — what knowledge buys what (§I, the "perhaps surprisingly"
//! remark, quantified).
//!
//! The paper observes that knowing the multiplicity bound `k` (plus the
//! ring's orientation) lets `Ak`/`Bk` solve rings that are *unsolvable*
//! in models where processes instead know `n` or bounds `m ≤ n ≤ M`
//! (Dobrev–Pelc \[4\], Delporte et al. \[9\]). We make that concrete:
//!
//! For each asymmetric ring we run `Ak(k)` (always succeeds) against
//! `BoundedN(m, M)` — our \[4\]-style comparator that must *refuse* whenever
//! some ring consistent with its observations is symmetric, i.e. whenever
//! `M ≥ 2s` for the ring's primitive root length `s = n`. The table sweeps
//! bound tightness and reports the refusal frontier: `BoundedN` flips from
//! "elects" to "impossible" exactly when `M` crosses `2n`, while `Ak` is
//! oblivious to it.

use hre_analysis::Table;
use hre_baselines::{BnProc, BoundedN};
use hre_core::Ak;
use hre_ring::{catalog, generate, RingLabeling};
use hre_sim::{run, Network, RoundRobinSched, RunOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 1414;

/// Outcome of one BoundedN run, decided by direct network inspection
/// (refusal is a *decision*, not a spec-clean election).
fn bounded_n_outcome(ring: &RingLabeling, m: usize, big_m: usize) -> &'static str {
    let algo = BoundedN::new(m, big_m);
    let mut net: Network<BnProc> = Network::new(&algo, ring);
    let mut guard = 0u64;
    while let Some(&i) = net.enabled_set().first() {
        net.fire(i);
        guard += 1;
        assert!(guard < 50_000_000);
    }
    let impossible = (0..ring.n()).all(|i| net.process(i).declared_impossible());
    let leaders: Vec<usize> = (0..ring.n()).filter(|&i| net.election(i).is_leader).collect();
    let all_halted = (0..ring.n()).all(|i| net.election(i).halted);
    match (impossible, leaders.len(), all_halted) {
        (true, 0, true) => "refuses (impossible)",
        (false, 1, true) => "elects",
        _ => "BROKEN",
    }
}

/// Runs the experiment and renders its report.
pub fn report() -> String {
    let mut out = String::new();
    out.push_str(&format!("seed = {SEED}\n\n"));
    let mut rng = StdRng::seed_from_u64(SEED);

    let mut t = Table::new(["ring", "n", "k", "Ak(k)", "bounds [m,M]", "BoundedN", "M < 2n?"]);
    let mut frontier_ok = true;

    let mut rings: Vec<RingLabeling> = vec![catalog::ring_122(), catalog::figure1_ring()];
    rings.push(generate::random_a_inter_kk(6, 2, 4, &mut rng).expect("a nonempty ring class"));
    rings.push(generate::random_a_inter_kk(10, 3, 5, &mut rng).expect("a nonempty ring class"));

    for ring in &rings {
        let n = ring.n();
        let k = ring.max_multiplicity().max(1);
        let ak = run(&Ak::new(k), ring, &mut RoundRobinSched::default(), RunOptions::default());
        let ak_out = if ak.clean() { "elects" } else { "fails" };

        // three bound regimes: tight, boundary, loose
        let regimes = [
            (n.saturating_sub(1).max(2), 2 * n - 1), // M < 2n: must elect
            (n.saturating_sub(1).max(2), 2 * n),     // M = 2n: must refuse
            (2.max(n / 2), 3 * n),                   // loose: must refuse
        ];
        for (m, big_m) in regimes {
            let (m, big_m) = (m.min(n), big_m.max(n));
            let outcome = bounded_n_outcome(ring, m, big_m);
            let tight = big_m < 2 * n;
            frontier_ok &=
                (tight && outcome == "elects") || (!tight && outcome == "refuses (impossible)");
            t.row([
                format!("{ring}"),
                n.to_string(),
                k.to_string(),
                ak_out.to_string(),
                format!("[{m},{big_m}]"),
                outcome.to_string(),
                tight.to_string(),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nRefusal frontier at exactly M = 2n while Ak (knowing k) elects \
         everywhere: {}\n\
         This quantifies the paper's remark: knowledge of k and orientation \
         strictly beats bounds on n on these rings (e.g. ring (1,2,2) with \
         any bounds allowing M ≥ 6).\n",
        if frontier_ok { "CONFIRMED" } else { "NOT CONFIRMED" }
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn knowledge_frontier_confirmed() {
        let r = super::report();
        assert!(r.contains("elects everywhere: CONFIRMED"), "{r}");
    }
}
