//! `BoundedN`: a Dobrev–Pelc-style comparator — processes know a lower
//! bound `m` and an upper bound `M` on the unknown ring size `n`
//! (`2 ≤ m ≤ n ≤ M`), and must **decide whether leader election is
//! possible and perform it if so** (the task of reference \[4\] in the
//! paper, adapted to our unidirectional model).
//!
//! Every process collects a window of exactly `2M` labels (hop-counted
//! tokens die after `2M−1` forwards, so each process receives exactly
//! `2M−1` tokens and the token traffic drains by itself). Since
//! `2M ≥ 2n`, the window's smallest repeating prefix has the length `s` of
//! the ring's *primitive root*. The candidate ring sizes consistent with
//! the observation are the multiples of `s` in `[m, M]`:
//!
//! * if the **only** candidate is `n = s`, the ring is certainly
//!   asymmetric: elect the Lyndon-word process, circulate `FINISH`, halt;
//! * otherwise (several candidates, or only a symmetric interpretation)
//!   rings indistinguishable from the observed window include a symmetric
//!   one, so no algorithm may elect: every process sets
//!   `declared_impossible` and halts.
//!
//! This realizes the paper's point that bounds on `n` are *incomparable*
//! with knowledge of the multiplicity bound `k`: with `k`, `Ak`/`Bk` solve
//! every asymmetric ring, while `BoundedN` must refuse whenever `M ≥ 2s`.

use hre_sim::{Algorithm, ElectionState, Outbox, ProcessBehavior, Reaction};
use hre_words::{is_lyndon, srp, Label};

/// Messages of `BoundedN`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BnMsg {
    /// A label token with its hop count.
    Token(Label, u32),
    /// Election over; payload is the leader's label.
    Finish(Label),
}

/// Factory for `BoundedN` processes.
#[derive(Clone, Copy, Debug)]
pub struct BoundedN {
    /// Lower bound on `n` (`≥ 2`).
    pub m: usize,
    /// Upper bound on `n` (`≥ m`).
    pub big_m: usize,
}

impl BoundedN {
    /// Creates the algorithm for known bounds `2 ≤ m ≤ M`.
    pub fn new(m: usize, big_m: usize) -> Self {
        assert!(m >= 2 && big_m >= m, "need 2 <= m <= M");
        BoundedN { m, big_m }
    }
}

impl Algorithm for BoundedN {
    type Proc = BnProc;

    fn name(&self) -> String {
        format!("BoundedN(m={},M={})", self.m, self.big_m)
    }

    fn spawn(&self, label: Label) -> BnProc {
        BnProc {
            id: label,
            m: self.m,
            big_m: self.big_m,
            string: Vec::new(),
            impossible: false,
            st: ElectionState::INITIAL,
        }
    }
}

/// One `BoundedN` process.
pub struct BnProc {
    id: Label,
    m: usize,
    big_m: usize,
    string: Vec<Label>,
    impossible: bool,
    st: ElectionState,
}

impl BnProc {
    /// Did this process decide that election is impossible for every ring
    /// consistent with its observations?
    pub fn declared_impossible(&self) -> bool {
        self.impossible
    }

    /// Called when the window is complete (`|string| = 2M`).
    fn decide(&mut self, out: &mut Outbox<BnMsg>) {
        debug_assert_eq!(self.string.len(), 2 * self.big_m);
        let root = srp(&self.string);
        let s = root.len();
        let candidates: Vec<usize> = (1..=self.big_m / s)
            .map(|e| e * s)
            .filter(|&c| c >= self.m && c <= self.big_m)
            .collect();
        if candidates == [s] {
            // Unambiguously asymmetric with n = s: elect the true leader.
            if is_lyndon(root) {
                self.st.is_leader = true;
                self.st.leader = Some(self.id);
                self.st.done = true;
                out.send(BnMsg::Finish(self.id));
            }
            // Non-leaders wait for FINISH.
        } else {
            // A symmetric ring is consistent with the observation: refuse.
            self.impossible = true;
            self.st.halted = true;
        }
    }
}

impl ProcessBehavior for BnProc {
    type Msg = BnMsg;

    fn on_start(&mut self, out: &mut Outbox<BnMsg>) {
        self.string.push(self.id);
        out.send(BnMsg::Token(self.id, 0));
    }

    fn on_msg(&mut self, msg: &BnMsg, out: &mut Outbox<BnMsg>) -> Reaction {
        match *msg {
            BnMsg::Token(x, hops) => {
                self.string.push(x);
                let hops = hops + 1;
                if (hops as usize) < 2 * self.big_m - 1 {
                    out.send(BnMsg::Token(x, hops));
                }
                if self.string.len() == 2 * self.big_m {
                    self.decide(out);
                }
                Reaction::Consumed
            }
            BnMsg::Finish(x) => {
                if self.st.is_leader {
                    self.st.halted = true;
                } else {
                    self.st.leader = Some(x);
                    self.st.done = true;
                    out.send(BnMsg::Finish(x));
                    self.st.halted = true;
                }
                Reaction::Consumed
            }
        }
    }

    fn election(&self) -> ElectionState {
        self.st
    }

    /// Window of `2M` labels plus `id`, `leader`, a hop counter and flags.
    fn space_bits(&self, label_bits: u32) -> u64 {
        let b = label_bits as u64;
        let log_m = ((2 * self.big_m as u64 - 1).max(1).ilog2() + 1) as u64;
        self.string.len() as u64 * b + 2 * b + log_m + 4
    }

    /// Tokens carry a label and a `⌈log 2M⌉`-bit hop counter plus a one-bit
    /// tag; `FINISH` carries a label and the tag.
    fn msg_wire_bits(&self, msg: &BnMsg, label_bits: u32) -> u64 {
        let log_m = ((2 * self.big_m as u64 - 1).max(1).ilog2() + 1) as u64;
        match msg {
            BnMsg::Token(..) => label_bits as u64 + log_m + 1,
            BnMsg::Finish(_) => label_bits as u64 + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hre_ring::{catalog, generate, RingLabeling};
    use hre_sim::{run, Network, RoundRobinSched, RunOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn elects_true_leader_with_tight_bounds() {
        // Bounds tight enough that n = s is the only candidate: M < 2m
        // guarantees it for every asymmetric ring.
        let ring = catalog::figure1_ring(); // n = 8
        let rep = run(
            &BoundedN::new(6, 10),
            &ring,
            &mut RoundRobinSched::default(),
            RunOptions::default(),
        );
        assert!(rep.clean(), "{:?} {:?}", rep.verdict, rep.violations);
        assert_eq!(rep.leader, Some(catalog::FIGURE1_LEADER));
    }

    #[test]
    fn agrees_with_oracle_on_random_rings() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..8 {
            let ring = generate::random_a_inter_kk(9, 3, 4, &mut rng).unwrap();
            let rep = run(
                &BoundedN::new(7, 11),
                &ring,
                &mut RoundRobinSched::default(),
                RunOptions::default(),
            );
            assert!(rep.clean(), "{ring:?}");
            assert_eq!(rep.leader, ring.true_leader(), "{ring:?}");
        }
    }

    fn drive_to_quiescence(ring: &RingLabeling, algo: &BoundedN) -> Network<BnProc> {
        let mut net: Network<BnProc> = Network::new(algo, ring);
        let mut guard = 0;
        while let Some(&i) = net.enabled_set().first() {
            net.fire(i);
            guard += 1;
            assert!(guard < 10_000_000);
        }
        net
    }

    #[test]
    fn refuses_on_symmetric_rings() {
        // n = 6 symmetric ring; with bounds [4, 8] the primitive root s = 2
        // admits candidates {4, 6, 8} — impossible, and rightly so.
        let ring = generate::symmetric_ring(&[1, 2], 3);
        let net = drive_to_quiescence(&ring, &BoundedN::new(4, 8));
        for i in 0..ring.n() {
            assert!(net.process(i).declared_impossible(), "p{i}");
            assert!(net.election(i).halted);
            assert!(!net.election(i).is_leader);
        }
        assert_eq!(net.in_flight(), 0, "token traffic must drain");
    }

    #[test]
    fn refuses_on_asymmetric_ring_with_loose_bounds() {
        // The paper's point: the ring (1,2,2) is asymmetric (n = 3 = s), but
        // with bounds [2, 6] the doubled symmetric ring (1,2,2,1,2,2) is
        // indistinguishable from it — BoundedN must refuse, while Ak/Bk
        // (knowing k) elect. Knowledge of k beats bounds on n here.
        let ring = catalog::ring_122();
        let net = drive_to_quiescence(&ring, &BoundedN::new(2, 6));
        for i in 0..ring.n() {
            assert!(net.process(i).declared_impossible(), "p{i}");
        }
        // (That Ak/Bk with k = 2 elect on this very ring is asserted in the
        // cross-crate integration tests — knowledge of k beats bounds on n.)
    }

    #[test]
    fn window_is_llabels_prefix() {
        let ring = catalog::figure1_ring();
        let algo = BoundedN::new(6, 9);
        let net = drive_to_quiescence(&ring, &algo);
        for i in 0..ring.n() {
            let s = &net.process(i).string;
            assert_eq!(s.len(), 18);
            assert_eq!(s, &ring.llabels(i, 18), "p{i}");
        }
    }

    #[test]
    fn tight_bounds_iff_m_less_than_2m() {
        // For any asymmetric ring with M < 2m the candidate set is {n}:
        // BoundedN always elects.
        let mut rng = StdRng::seed_from_u64(9);
        for n in [5usize, 7, 10] {
            let ring = generate::random_k1(n, &mut rng);
            let rep = run(
                &BoundedN::new(n - 1, n + 1),
                &ring,
                &mut RoundRobinSched::default(),
                RunOptions::default(),
            );
            // n-1 >= 2 and n+1 < 2(n-1) for n >= 4
            assert!(rep.clean(), "{ring:?}");
        }
    }
}
