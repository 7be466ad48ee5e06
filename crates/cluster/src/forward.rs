//! The routed-request lifecycle as a sans-IO state machine.
//!
//! [`Forward`] owns every policy decision of one routed request against
//! one [`Topology`] snapshot: the candidate walk (ring preference order,
//! open breakers skipped, fail-open when that leaves nobody), when to
//! launch the primary, when to hedge a silent attempt, when to fail over,
//! the client-facing deadline, breaker and
//! [`BackendMetrics`](crate::metrics::BackendMetrics)
//! bookkeeping, and the final answer. It performs no I/O and reads no
//! clock: the caller passes `now` into every call and carries out the
//! [`Step`]s it returns.
//!
//! ```text
//!   caller                          Forward
//!   ──────                          ───────
//!   poll(now)                 ──▶   Launch { attempt, slot, kind }
//!   (send the attempt)
//!   poll(now)                 ──▶   Wait(t)       hedge or deadline due at t
//!   on_response(now, i, 503)  ──▶   (busy: breaker success, fail over)
//!   on_failure(now, i)        ──▶   (breaker failure, fail over)
//!   poll(now)                 ──▶   Done(Relay(i) | Exhausted | DeadlineExpired)
//! ```
//!
//! Two callers run the same machine: the threaded router
//! ([`crate::router`]), which sends each attempt on its own thread and
//! waits on a channel until the next [`Step::Wait`] instant, and the
//! deterministic simulator (`hre-dst`), which turns the same steps into
//! virtual-time events. What the simulator checks is therefore the
//! policy the daemon serves with.
//!
//! The policy, precisely:
//!
//! - **Candidates** are picked once, at construction: the ring walk from
//!   the shard key with every slot whose breaker refuses at `now`
//!   skipped (each skip counts a failover on that slot). If every
//!   breaker refuses, the full walk is used (fail-open). Breakers are not
//!   re-checked at later launches.
//! - **Hedge**: while exactly one attempt is live and a candidate
//!   remains, silence past that attempt's backend's
//!   [`BackendSlot::hedge_threshold`] (`max(hedge_min, 2 × p95)`, no
//!   cap), counted from the request's last launch or answer, launches
//!   the next candidate as a hedge. This holds after a
//!   failover too, not only for the primary.
//! - **Failover**: when no attempt is live and no definitive answer has
//!   arrived, the next candidate launches.
//! - **Answers**: any status below 500 (200 elected, 422 spec violated)
//!   is definitive and wins. Every response, `503` included, records a
//!   breaker success; `503` counts `busy`, other 5xx count `errors`. A
//!   transport failure records a breaker failure and counts `errors` and
//!   `failovers`.
//! - **Done**: a definitive answer is relayed. With candidates exhausted
//!   and nothing live, the last busy/5xx answer is relayed (so the client
//!   sees its `Retry-After`), or, if none arrived, a `502` is
//!   synthesized. At the deadline a `504` is synthesized.

use crate::metrics::ClusterMetrics;
use crate::topology::{BackendSlot, Topology};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an attempt was launched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptKind {
    /// The first attempt, at the shard's first admitted candidate.
    Primary,
    /// A duplicate raced against a silent live attempt.
    Hedge,
    /// A relaunch after every live attempt resolved without an answer.
    Failover,
}

impl AttemptKind {
    /// Stable label for transcripts.
    pub fn as_str(self) -> &'static str {
        match self {
            AttemptKind::Primary => "primary",
            AttemptKind::Hedge => "hedge",
            AttemptKind::Failover => "failover",
        }
    }
}

/// The request's final answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Relay the response of attempt `i` (numbered in launch order).
    Relay(usize),
    /// Every candidate failed at the transport level: answer `502`.
    Exhausted,
    /// The client-facing deadline passed: answer `504`.
    DeadlineExpired,
}

/// What the caller must do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Send attempt number `attempt` to `slot` (an index into the
    /// topology's slots), then poll again.
    Launch {
        /// Attempt number, in launch order from 0.
        attempt: usize,
        /// Slot index within the machine's topology.
        slot: usize,
        /// Why it launches.
        kind: AttemptKind,
    },
    /// Nothing to do before this instant unless an attempt resolves;
    /// poll again at the latest then.
    Wait(Instant),
    /// The request is decided.
    Done(Verdict),
}

struct Attempt {
    slot: usize,
    kind: AttemptKind,
    launched: Instant,
    live: bool,
}

/// One routed request's lifecycle; see the module docs for the policy.
pub struct Forward {
    topo: Arc<Topology>,
    metrics: Arc<ClusterMetrics>,
    candidates: Vec<usize>,
    next: usize,
    attempts: Vec<Attempt>,
    deadline: Instant,
    hedge_min: Duration,
    /// When the request last saw an event (launch or resolution): the
    /// hedge clock measures silence from here.
    quiet_since: Instant,
    /// The last busy or 5xx answer, relayed if nothing better arrives.
    last_answer: Option<usize>,
    verdict: Option<Verdict>,
}

impl Forward {
    /// Picks the candidates for shard `key` at `now` (see the module
    /// docs) for a request that must be answered by `deadline`.
    pub fn new(
        topo: Arc<Topology>,
        metrics: Arc<ClusterMetrics>,
        key: u64,
        now: Instant,
        deadline: Instant,
        hedge_min: Duration,
    ) -> Forward {
        let order = topo.ring.preference_order(key);
        let mut candidates: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| topo.slots[i].breaker.allows_request_at(now))
            .collect();
        if candidates.is_empty() {
            candidates = order.clone();
        }
        for &skipped in order.iter().filter(|i| !candidates.contains(i)) {
            ClusterMetrics::inc(&topo.slots[skipped].metrics.failovers);
        }
        Forward {
            topo,
            metrics,
            candidates,
            next: 0,
            attempts: Vec::new(),
            deadline,
            hedge_min,
            quiet_since: now,
            last_answer: None,
            verdict: None,
        }
    }

    /// Slots admitted at candidate pick, in launch order.
    pub fn candidates(&self) -> &[usize] {
        &self.candidates
    }

    /// The topology snapshot this request routes against.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The slot attempt `attempt` went to.
    pub fn slot_of(&self, attempt: usize) -> &Arc<BackendSlot> {
        &self.topo.slots[self.attempts[attempt].slot]
    }

    /// The next thing to do at `now`. A [`Step::Launch`] counts as
    /// carried out, so poll again until the machine waits or decides; a
    /// [`Step::Wait`] or [`Step::Done`] repeats until an input arrives
    /// or the wait instant passes.
    pub fn poll(&mut self, now: Instant) -> Step {
        if let Some(v) = self.verdict {
            return Step::Done(v);
        }
        if self.candidates.is_empty() {
            return self.decide(Verdict::Exhausted);
        }
        if self.attempts.is_empty() {
            return self.launch(now, AttemptKind::Primary);
        }
        if now >= self.deadline {
            return self.decide(Verdict::DeadlineExpired);
        }
        let mut live = self.attempts.iter().filter(|a| a.live);
        match (live.next(), live.next()) {
            (None, _) if self.next < self.candidates.len() => {
                self.launch(now, AttemptKind::Failover)
            }
            (None, _) => self.decide(self.last_answer.map_or(Verdict::Exhausted, Verdict::Relay)),
            (Some(only), None) if self.next < self.candidates.len() => {
                let stalled = only.slot;
                let hedge_at =
                    self.quiet_since + self.topo.slots[stalled].hedge_threshold(self.hedge_min);
                if now >= hedge_at {
                    ClusterMetrics::inc(&self.topo.slots[stalled].metrics.hedges);
                    self.launch(now, AttemptKind::Hedge)
                } else {
                    Step::Wait(hedge_at.min(self.deadline))
                }
            }
            _ => Step::Wait(self.deadline),
        }
    }

    /// Attempt `attempt` answered `status` at `now`.
    pub fn on_response(&mut self, now: Instant, attempt: usize, status: u16) {
        let Some(slot) = self.resolve(now, attempt) else { return };
        let m = &self.topo.slots[slot].metrics;
        m.latency.record(now.saturating_duration_since(self.attempts[attempt].launched));
        // A response of any status means the backend is alive.
        self.topo.slots[slot].breaker.record_success();
        match status {
            503 => {
                ClusterMetrics::inc(&m.busy);
                self.last_answer = Some(attempt);
            }
            s if s >= 500 => {
                ClusterMetrics::inc(&m.errors);
                self.last_answer = Some(attempt);
            }
            _ => {
                if self.attempts[attempt].kind == AttemptKind::Hedge {
                    ClusterMetrics::inc(&self.metrics.hedge_wins);
                }
                self.verdict = Some(Verdict::Relay(attempt));
            }
        }
    }

    /// Attempt `attempt` failed at the transport level (connect, write,
    /// read, or its timeout) at `now`.
    pub fn on_failure(&mut self, now: Instant, attempt: usize) {
        let Some(slot) = self.resolve(now, attempt) else { return };
        let slot = &self.topo.slots[slot];
        slot.breaker.record_failure_at(now);
        ClusterMetrics::inc(&slot.metrics.errors);
        ClusterMetrics::inc(&slot.metrics.failovers);
    }

    /// Marks a live attempt resolved; `None` if it already was or the
    /// request is decided (late answers change nothing).
    fn resolve(&mut self, now: Instant, attempt: usize) -> Option<usize> {
        let a = self.attempts.get_mut(attempt).filter(|a| a.live && self.verdict.is_none())?;
        a.live = false;
        self.quiet_since = now;
        Some(a.slot)
    }

    fn launch(&mut self, now: Instant, kind: AttemptKind) -> Step {
        let slot = self.candidates[self.next];
        self.next += 1;
        ClusterMetrics::inc(&self.topo.slots[slot].metrics.requests);
        self.attempts.push(Attempt { slot, kind, launched: now, live: true });
        self.quiet_since = now;
        Step::Launch { attempt: self.attempts.len() - 1, slot, kind }
    }

    fn decide(&mut self, verdict: Verdict) -> Step {
        if !matches!(verdict, Verdict::Relay(_)) {
            ClusterMetrics::inc(&self.metrics.request_errors);
        }
        self.verdict = Some(verdict);
        Step::Done(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::BreakerState;
    use crate::metrics::BackendMetrics;
    use crate::router::ClusterConfig;
    use std::sync::atomic::{AtomicU64, Ordering};
    use AttemptKind::{Failover, Hedge, Primary};
    use In::{Fail, Poll, Resp, Trip};
    use Want::{Done, HedgeAt, Launch, Wait};

    const KEY: u64 = 0x5eed;
    const HEDGE_MIN: Duration = Duration::from_millis(30);
    /// The deadline, in ms after the request starts.
    const END: u64 = 5_000;

    /// An input at an offset in ms, after which the machine is polled.
    /// Backends are named by their position in the shard's ring walk.
    #[derive(Clone, Copy, Debug)]
    enum In {
        Poll(u64),
        Resp(u64, usize, u16),
        Fail(u64, usize),
        Trip(u64, usize),
    }

    /// What that poll must return (`HedgeAt(pos)`: a wait for the
    /// position's hedge threshold from the start).
    #[derive(Clone, Copy, Debug)]
    enum Want {
        Launch(usize, AttemptKind),
        Wait(u64),
        HedgeAt(usize),
        Done(Verdict),
    }

    /// The topology, its ring walk for `KEY`, and the front-door metrics.
    type World<'a> = (&'a Topology, &'a [usize], &'a ClusterMetrics);

    /// Name, backend count, setup before the pick, script, final check.
    type Case = (&'static str, usize, fn(World, Instant), &'static [(In, Want)], fn(World));

    fn n(w: World, pos: usize, field: fn(&BackendMetrics) -> &AtomicU64) -> u64 {
        field(&w.0.slots[w.1[pos]].metrics).load(Ordering::Relaxed)
    }

    const CASES: &[Case] = &[
        (
            "a hedge fires after a failover",
            3,
            |_, _| {},
            &[
                (Poll(0), Launch(0, Primary)),
                (Poll(0), Wait(30)),
                (Fail(10, 0), Launch(1, Failover)),
                (Poll(10), Wait(40)),
                (Poll(40), Launch(2, Hedge)),
                (Poll(40), Wait(END)),
            ],
            |w| assert_eq!((n(w, 1, |m| &m.hedges), n(w, 0, |m| &m.failovers)), (1, 1)),
        ),
        (
            "the per-backend threshold is used, uncapped",
            2,
            |w, _| (0..20).for_each(|_| w.0.slots[w.1[0]].metrics.latency.record_us(400_000)),
            &[(Poll(0), Launch(0, Primary)), (Poll(100), HedgeAt(0))],
            |w| {
                let slow = w.0.slots[w.1[0]].hedge_threshold(HEDGE_MIN);
                assert!(slow > Duration::from_millis(600), "2×p95 of 400 ms: {slow:?}");
                assert_eq!(w.0.slots[w.1[1]].hedge_threshold(HEDGE_MIN), HEDGE_MIN);
            },
        ),
        (
            "a 503 ticks a breaker success",
            2,
            |w, t0| (0..2).for_each(|_| w.0.slots[w.1[0]].breaker.record_failure_at(t0)),
            &[(Poll(0), Launch(0, Primary)), (Resp(5, 0, 503), Launch(1, Failover))],
            |w| {
                // Two failures, the 503, one more failure: a streak of one.
                let breaker = &w.0.slots[w.1[0]].breaker;
                breaker.record_failure();
                assert_eq!(breaker.peek_state(), BreakerState::Closed);
                assert_eq!(n(w, 0, |m| &m.busy), 1);
            },
        ),
        (
            "breakers are checked once, at candidate pick",
            2,
            |_, _| {},
            &[
                (Poll(0), Launch(0, Primary)),
                (Trip(1, 1), Wait(30)),
                (Fail(5, 0), Launch(1, Failover)),
            ],
            |_| {},
        ),
        (
            "a 503 then a transport error relays the 503",
            2,
            |_, _| {},
            &[
                (Poll(0), Launch(0, Primary)),
                (Resp(5, 0, 503), Launch(1, Failover)),
                (Fail(10, 1), Done(Verdict::Relay(0))),
                (Resp(11, 1, 200), Done(Verdict::Relay(0))),
            ],
            |w| assert_eq!(w.2.request_errors.load(Ordering::Relaxed), 0),
        ),
        (
            "the deadline synthesizes a 504",
            1,
            |_, _| {},
            &[
                (Poll(0), Launch(0, Primary)),
                (Poll(0), Wait(END)),
                (Poll(END), Done(Verdict::DeadlineExpired)),
            ],
            |w| assert_eq!(w.2.request_errors.load(Ordering::Relaxed), 1),
        ),
        (
            "every breaker open fails open to the full walk",
            2,
            |w, t0| w.0.slots.iter().for_each(|s| s.breaker.trip_at(t0)),
            &[(Poll(0), Launch(0, Primary)), (Fail(5, 0), Launch(1, Failover))],
            // Nothing was skipped: only the transport error failed over.
            |w| assert_eq!((n(w, 0, |m| &m.failovers), n(w, 1, |m| &m.failovers)), (1, 0)),
        ),
        (
            "an open breaker is skipped at pick and counts a failover",
            2,
            |w, t0| w.0.slots[w.1[0]].breaker.trip_at(t0),
            &[(Poll(0), Launch(1, Primary)), (Fail(5, 0), Done(Verdict::Exhausted))],
            |w| {
                assert_eq!((n(w, 0, |m| &m.failovers), n(w, 0, |m| &m.requests)), (1, 0));
                assert_eq!(w.2.request_errors.load(Ordering::Relaxed), 1);
            },
        ),
        (
            "a hedge win counts hedge_wins",
            2,
            |_, _| {},
            &[
                (Poll(0), Launch(0, Primary)),
                (Poll(30), Launch(1, Hedge)),
                (Poll(30), Wait(END)),
                (Resp(40, 1, 200), Done(Verdict::Relay(1))),
            ],
            |w| {
                assert_eq!(w.2.hedge_wins.load(Ordering::Relaxed), 1);
                assert_eq!((n(w, 0, |m| &m.hedges), n(w, 1, |m| &m.requests)), (1, 1));
            },
        ),
        (
            "no candidates synthesizes a 502",
            0,
            |_, _| {},
            &[(Poll(0), Done(Verdict::Exhausted))],
            |w| assert_eq!(w.2.request_errors.load(Ordering::Relaxed), 1),
        ),
    ];

    #[test]
    fn the_machine_pins_the_production_policy() {
        for &(name, backends, setup, script, check) in CASES {
            let cfg = ClusterConfig {
                backends: (0..backends).map(|i| format!("10.0.0.{i}:80")).collect(),
                ..ClusterConfig::default()
            };
            let topo = Arc::new(Topology::initial(&cfg));
            let metrics = Arc::new(ClusterMetrics::new());
            let order = topo.ring.preference_order(KEY);
            let w: World = (&topo, &order, &metrics);
            let t0 = Instant::now();
            let at = |ms: u64| t0 + Duration::from_millis(ms);
            setup(w, t0);
            let mut m =
                Forward::new(Arc::clone(&topo), Arc::clone(&metrics), KEY, t0, at(END), HEDGE_MIN);
            for (i, &(input, want)) in script.iter().enumerate() {
                let now = match input {
                    Poll(ms) => at(ms),
                    Resp(ms, attempt, status) => {
                        m.on_response(at(ms), attempt, status);
                        at(ms)
                    }
                    Fail(ms, attempt) => {
                        m.on_failure(at(ms), attempt);
                        at(ms)
                    }
                    Trip(ms, pos) => {
                        topo.slots[order[pos]].breaker.trip_at(at(ms));
                        at(ms)
                    }
                };
                let want = match want {
                    Launch(pos, kind) => {
                        Step::Launch { attempt: m.attempts.len(), slot: order[pos], kind }
                    }
                    Wait(ms) => Step::Wait(at(ms)),
                    HedgeAt(pos) => {
                        Step::Wait(t0 + topo.slots[order[pos]].hedge_threshold(HEDGE_MIN))
                    }
                    Done(v) => Step::Done(v),
                };
                assert_eq!(m.poll(now), want, "{name}: step {i} ({input:?})");
            }
            check(w);
        }
    }
}
