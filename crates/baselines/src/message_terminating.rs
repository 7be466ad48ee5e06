//! `MtAk`: a **message-terminating** weakening of Algorithm `Ak`,
//! materializing the paper's §I distinction between termination notions.
//!
//! Related work (Delporte et al. \[9\]) solves *message-terminating* leader
//! election: processes never halt, but only finitely many messages are
//! exchanged. The paper's specification is strictly stronger
//! (*process-terminating*: every process eventually halts). `MtAk` runs
//! `Ak`'s election but skips the halting statements: the run reaches a
//! quiescent — not terminal-halted — configuration. It satisfies the
//! message-terminating specification ([`satisfies_message_terminating`](hre_sim::satisfies_message_terminating))
//! and *fails* the paper's (the simulator's spec monitor reports
//! `NeverHalted`), demonstrating that the two specs genuinely differ.

use hre_sim::{Algorithm, ElectionState, Outbox, ProcessBehavior, Reaction};
use hre_words::{is_lyndon, least_rotation, rotate_left, srp, Label};

/// Messages of `MtAk` (same shape as `Ak`'s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MtMsg {
    /// A circulating label token.
    Token(Label),
    /// The election is over.
    Finish,
}

/// Factory for message-terminating `Ak` processes.
#[derive(Clone, Copy, Debug)]
pub struct MtAk {
    /// The multiplicity bound `k ≥ 1`.
    pub k: usize,
}

impl MtAk {
    /// Creates the algorithm for a bound `k ≥ 1`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        MtAk { k }
    }
}

impl Algorithm for MtAk {
    type Proc = MtProc;

    fn name(&self) -> String {
        format!("MtAk(k={})", self.k)
    }

    fn spawn(&self, label: Label) -> MtProc {
        MtProc { id: label, k: self.k, string: Vec::new(), st: ElectionState::INITIAL }
    }
}

/// One message-terminating process.
pub struct MtProc {
    id: Label,
    k: usize,
    string: Vec<Label>,
    st: ElectionState,
}

impl ProcessBehavior for MtProc {
    type Msg = MtMsg;

    fn on_start(&mut self, out: &mut Outbox<MtMsg>) {
        self.string.push(self.id);
        out.send(MtMsg::Token(self.id));
    }

    fn on_msg(&mut self, msg: &MtMsg, out: &mut Outbox<MtMsg>) -> Reaction {
        match (*msg, self.st.is_leader) {
            (MtMsg::Token(_), true) => Reaction::Consumed,
            (MtMsg::Token(x), false) => {
                self.string.push(x);
                let decided = hre_words::has_label_with_count(&self.string, 2 * self.k + 1)
                    && is_lyndon(srp(&self.string));
                if decided {
                    self.st.is_leader = true;
                    self.st.leader = Some(self.id);
                    self.st.done = true;
                    out.send(MtMsg::Finish);
                } else {
                    out.send(MtMsg::Token(x));
                }
                Reaction::Consumed
            }
            (MtMsg::Finish, false) => {
                let period = srp(&self.string);
                let lw = rotate_left(period, least_rotation(period));
                self.st.leader = Some(lw[0]);
                self.st.done = true;
                out.send(MtMsg::Finish);
                // NO halt: the process keeps listening forever (but nothing
                // will ever arrive — message termination).
                Reaction::Consumed
            }
            (MtMsg::Finish, true) => {
                // NO halt here either.
                Reaction::Consumed
            }
        }
    }

    fn election(&self) -> ElectionState {
        self.st
    }

    /// One label plus a one-bit tag per message.
    fn msg_wire_bits(&self, _msg: &MtMsg, label_bits: u32) -> u64 {
        label_bits as u64 + 1
    }

    fn space_bits(&self, label_bits: u32) -> u64 {
        let b = label_bits as u64;
        self.string.len() as u64 * b + 2 * b + 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hre_ring::catalog;
    use hre_sim::{
        run, satisfies_message_terminating, RoundRobinSched, RunOptions, SpecViolation, Verdict,
    };

    #[test]
    fn message_terminates_but_does_not_process_terminate() {
        let ring = catalog::figure1_ring();
        let rep = run(&MtAk::new(3), &ring, &mut RoundRobinSched::default(), RunOptions::default());
        // Quiescent (finite messages), correct unique leader — but the
        // process-terminating spec is violated: nobody halts.
        assert_eq!(rep.verdict, Verdict::QuiescentNotHalted);
        assert!(!rep.clean());
        assert!(rep.violations.iter().any(|v| matches!(v, SpecViolation::NeverHalted { .. })));
        assert!(satisfies_message_terminating(&rep), "{:?}", rep.violations);
        assert_eq!(rep.leader, Some(0));
    }

    #[test]
    fn elects_the_same_leader_as_ak_would() {
        use hre_ring::generate;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let ring = generate::random_a_inter_kk(8, 3, 4, &mut rng).unwrap();
            let rep =
                run(&MtAk::new(3), &ring, &mut RoundRobinSched::default(), RunOptions::default());
            assert!(satisfies_message_terminating(&rep), "{ring:?}");
            assert_eq!(rep.leader, ring.true_leader(), "{ring:?}");
        }
    }

    #[test]
    fn message_terminating_check_rejects_garbage() {
        // A run that elected nobody must not pass the weaker spec either.
        let ring = hre_ring::RingLabeling::from_raw(&[1, 2, 1, 2]); // symmetric
        let rep = run(
            &MtAk::new(2),
            &ring,
            &mut RoundRobinSched::default(),
            RunOptions { max_actions: 100_000, ..Default::default() },
        );
        assert!(!satisfies_message_terminating(&rep));
    }
}
