//! `OracleN`: true-leader (Lyndon-word) election when `n` is known.
//!
//! The paper's contribution section contrasts knowing the multiplicity
//! bound `k` against knowing `n` (or bounds on it, as in Dobrev–Pelc and
//! Delporte et al.). This baseline quantifies what the extra knowledge of
//! `n` buys: every process collects exactly one full turn of labels
//! (hop-counted tokens, so each token dies after `n−1` forwards), after
//! which it holds `LLabels(p)_n` and the Lyndon-word holder declares
//! itself. Works on **any** asymmetric ring — homonyms included — in
//! `Θ(n)` time and `Θ(n²)` messages, with no dependence on `k`.

use hre_sim::{Algorithm, ElectionState, Outbox, ProcessBehavior, Reaction};
use hre_words::{is_lyndon, Label};

/// Messages of `OracleN`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleMsg {
    /// A label token with the number of hops it has already traveled.
    Token(Label, u32),
    /// Election over; payload is the leader's label.
    Finish(Label),
}

/// Factory for `OracleN` processes: all spawned processes know `n`.
#[derive(Clone, Copy, Debug)]
pub struct OracleN {
    /// The exact ring size, known a priori.
    pub n: usize,
}

impl OracleN {
    /// Creates the algorithm for a known ring size `n ≥ 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        OracleN { n }
    }
}

impl Algorithm for OracleN {
    type Proc = OracleProc;

    fn name(&self) -> String {
        format!("OracleN(n={})", self.n)
    }

    fn spawn(&self, label: Label) -> OracleProc {
        OracleProc { id: label, n: self.n, string: Vec::new(), st: ElectionState::INITIAL }
    }
}

/// One `OracleN` process.
pub struct OracleProc {
    id: Label,
    n: usize,
    string: Vec<Label>,
    st: ElectionState,
}

impl OracleProc {
    fn maybe_decide(&mut self, out: &mut Outbox<OracleMsg>) {
        if self.string.len() == self.n && is_lyndon(&self.string) {
            self.st.is_leader = true;
            self.st.leader = Some(self.id);
            self.st.done = true;
            out.send(OracleMsg::Finish(self.id));
        }
    }
}

impl ProcessBehavior for OracleProc {
    type Msg = OracleMsg;

    fn on_start(&mut self, out: &mut Outbox<OracleMsg>) {
        self.string.push(self.id);
        if self.n == 1 {
            self.maybe_decide(out);
            return;
        }
        out.send(OracleMsg::Token(self.id, 0));
    }

    fn on_msg(&mut self, msg: &OracleMsg, out: &mut Outbox<OracleMsg>) -> Reaction {
        match *msg {
            OracleMsg::Token(x, hops) => {
                self.string.push(x);
                let hops = hops + 1;
                if (hops as usize) < self.n - 1 {
                    out.send(OracleMsg::Token(x, hops));
                }
                self.maybe_decide(out);
                Reaction::Consumed
            }
            OracleMsg::Finish(x) => {
                if self.st.is_leader {
                    self.st.halted = true;
                } else {
                    self.st.leader = Some(x);
                    self.st.done = true;
                    out.send(OracleMsg::Finish(x));
                    self.st.halted = true;
                }
                Reaction::Consumed
            }
        }
    }

    fn election(&self) -> ElectionState {
        self.st
    }

    /// The full-turn string (`n` labels), `id` and `leader`, a hop counter
    /// worth of scratch (`⌈log n⌉`), three booleans.
    fn space_bits(&self, label_bits: u32) -> u64 {
        let b = label_bits as u64;
        let log_n = ((self.n as u64 - 1).max(1).ilog2() + 1) as u64;
        self.string.len() as u64 * b + 2 * b + log_n + 3
    }

    /// Tokens carry a label and a hop counter (`⌈log n⌉` bits) plus a
    /// one-bit tag; `FINISH` carries a label and the tag.
    fn msg_wire_bits(&self, msg: &OracleMsg, label_bits: u32) -> u64 {
        let log_n = ((self.n as u64 - 1).max(1).ilog2() + 1) as u64;
        match msg {
            OracleMsg::Token(..) => label_bits as u64 + log_n + 1,
            OracleMsg::Finish(_) => label_bits as u64 + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hre_ring::{catalog, enumerate, generate, RingLabeling};
    use hre_sim::{run, RandomSched, RoundRobinSched, RunOptions, SyncSched};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn elects_true_leader_on_homonym_rings() {
        let ring = catalog::figure1_ring();
        let rep = run(
            &OracleN::new(ring.n()),
            &ring,
            &mut RoundRobinSched::default(),
            RunOptions::default(),
        );
        assert!(rep.clean(), "{:?} {:?}", rep.verdict, rep.violations);
        assert_eq!(rep.leader, Some(catalog::FIGURE1_LEADER));
    }

    #[test]
    fn exhaustive_small_asymmetric_rings() {
        for n in 2..=5usize {
            for ring in enumerate::asymmetric_labelings(n, 3) {
                let rep = run(
                    &OracleN::new(n),
                    &ring,
                    &mut RoundRobinSched::default(),
                    RunOptions::default(),
                );
                assert!(rep.clean(), "{ring:?}");
                assert_eq!(rep.leader, ring.true_leader(), "{ring:?}");
            }
        }
    }

    #[test]
    fn complexity_is_linear_time_quadratic_messages() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in [4usize, 8, 16, 32] {
            let ring = generate::random_k1(n, &mut rng);
            let rep = run(&OracleN::new(n), &ring, &mut SyncSched, RunOptions::default());
            assert!(rep.clean());
            let n64 = n as u64;
            // tokens: n tokens x (n-1) hops; FINISH: n
            assert_eq!(rep.metrics.messages, n64 * (n64 - 1) + n64);
            assert!(rep.metrics.time_units <= 2 * n64);
        }
    }

    #[test]
    fn agrees_with_ak_on_elected_process() {
        // OracleN and Ak elect the same (true) leader — the same Lyndon
        // criterion with different knowledge.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let ring = generate::random_a_inter_kk(7, 3, 3, &mut rng).unwrap();
            let oracle =
                run(&OracleN::new(7), &ring, &mut RandomSched::new(1), RunOptions::default());
            assert!(oracle.clean());
            assert_eq!(oracle.leader, ring.true_leader());
        }
    }

    #[test]
    fn wrong_n_breaks_it() {
        // Knowledge must be correct: with n' = 3 on this 4-ring, no
        // process's 3-label window is a Lyndon word, so nobody ever
        // declares and the run cannot terminate cleanly — echoing why "no
        // knowledge of n" is the hard setting.
        let ring = RingLabeling::from_raw(&[1, 2, 1, 3]);
        let rep = run(
            &OracleN::new(3),
            &ring,
            &mut RoundRobinSched::default(),
            RunOptions { max_actions: 10_000, ..Default::default() },
        );
        assert!(!rep.clean());
    }
}
