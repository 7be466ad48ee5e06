//! The whole serving path as one deterministic, virtual-time world.
//!
//! One [`World`] wires the real production components — the service's
//! result cache, the router's request machine ([`Forward`]) over a real
//! [`Topology`] (hash ring, breakers, per-backend metrics), `hre-net`'s
//! retransmit window and reassembly, the control plane's CRDT view and
//! `Ak` coordinator election — into a single event loop driven by a
//! [`VirtualClock`] and a seeded [`SimFabric`]. Every latency, loss,
//! and jitter draw comes from the plan's seed, so a run is a pure
//! function of its [`ScenarioPlan`]: the transcript hash is
//! byte-identical across machines, thread counts, and reruns.
//!
//! Three invariants are checked continuously:
//!
//! - **I1 (config safety)**: the router never accepts two different
//!   configurations at one epoch, and accepted epochs never regress.
//! - **I2 (failure attribution)**: every attempt timeout the world
//!   injects reaches the router's breaker bookkeeping (each backend's
//!   production `errors` counter equals its injected timeouts plus the
//!   5xx answers it gave), and a client-visible failure happens only
//!   inside a fault window or with some breaker not closed.
//! - **I3 (answer fidelity)**: every 200 body is byte-equal to the
//!   oracle's independently computed `response_json`.
//!
//! Elections additionally check **I0**: the coordinator `Ak` elects is
//! the plan's Lyndon-rotation owner ([`RingPlan::expected_coordinator`]).
//!
//! The world models only what sits around the router: the backends
//! (worker slots, a bounded queue, the result cache), the network
//! (latency, partitions, slow links) and the control plane. Every
//! launch, hedge, failover, deadline and final-answer decision comes
//! from the same [`Forward`] machine the threaded router drives; an
//! attempt's timeout is fed to it as a transport failure, exactly what
//! the router's socket timeout produces.

use crate::oracle;
use crate::scenario::{FaultSpec, Rng, ScenarioKind, ScenarioPlan};
use hre_cluster::{
    shard_key, AttemptKind, BackendSlot, BackendSummary, Breaker, BreakerState, ClusterConfig,
    ClusterMetrics, Forward, Step, Topology, Verdict,
};
use hre_ctrl::{MemberId, MemberInfo, RingPlan, Role, Status, View};
use hre_net::frame::{encode_frame, FrameReader, KIND_ACK, KIND_DATA};
use hre_net::reliable::{Offer, Reassembly};
use hre_net::window::RetransmitWindow;
use hre_runtime::trace::{render_tree, SpanAttrs, SpanId, Stage, TraceId};
use hre_runtime::{Clock, FlightRecorder, LinkProfile, NetFabric, SimFabric, VirtualClock};
use hre_svc::json::Json;
use hre_svc::{error_json, response_json, AlgoId, CacheKey, ElectRequest, ShardedLru};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// The router's fabric endpoint id (backends are `0..n`).
pub const ROUTER: u64 = 1000;

const ATTEMPT_TIMEOUT_NS: u64 = 120_000_000;
const DEADLINE_NS: u64 = 400_000_000;
const HEDGE_MIN_NS: u64 = 30_000_000;
const HEARTBEAT_NS: u64 = 75_000_000;
const FAIL_TIMEOUT_NS: u64 = 260_000_000;
const ELECT_COOLDOWN_NS: u64 = 350_000_000;
const ROUTER_TICK_NS: u64 = 50_000_000;
const GOSSIP_RTO: Duration = Duration::from_millis(110);
const WORKERS: u32 = 2;
const QUEUE_CAP: usize = 8;
const HIT_COST_NS: u64 = 250_000;
const MISS_BASE_NS: u64 = 800_000;
const MISS_PER_LABEL_NS: u64 = 150_000;
/// Aftermath margin appended to every fault window for the I2 sanity
/// check: long enough for breakers (probe cap 640ms) to close.
const WINDOW_MARGIN_NS: u64 = 1_600_000_000;

/// Knobs for one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldOptions {
    /// Plants the regression E24's gate (c) must catch: the world
    /// reports a failover or hedge attempt's timeout to the router
    /// machine as a `503` instead of a transport failure, so that
    /// timeout never reaches the breaker and I2 must notice.
    pub planted_regression: bool,
    /// Keep the full transcript text (sweeps keep only the hash).
    pub collect_transcript: bool,
    /// Record flight-recorder spans and render the tree at the end.
    pub record_spans: bool,
}

/// Counters accumulated over one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Client requests injected.
    pub requests: u64,
    /// Requests answered 200.
    pub ok: u64,
    /// Requests answered 422 (invalid ring — a correct terminal answer).
    pub invalid: u64,
    /// Requests answered with a relayed 503 (backpressure).
    pub busy: u64,
    /// Client-visible failures (504 deadline / 502 exhausted, or a
    /// relayed 5xx other than 503).
    pub failed: u64,
    /// Hedges fired, summed over the router's per-backend metrics.
    pub hedges: u64,
    /// Requests rerouted away from a backend (breaker open at pick, or
    /// a transport failure), summed over the router's per-backend
    /// metrics.
    pub failovers: u64,
    /// Attempt errors (transport failures and 5xx other than 503),
    /// summed over the router's per-backend metrics.
    pub errors: u64,
    /// Attempts that timed out at the router.
    pub timeouts: u64,
    /// Responses that arrived after their request was already decided.
    pub wasted: u64,
    /// Result-cache hits across all backends.
    pub cache_hits: u64,
    /// Result-cache misses across all backends.
    pub cache_misses: u64,
    /// Gossip frames retransmitted by the reliable layer.
    pub retransmits: u64,
    /// Coordinator elections run.
    pub elections: u64,
    /// Configs the router accepted.
    pub config_accepts: u64,
    /// Configs the router refused as stale.
    pub config_rejects: u64,
    /// Peers declared dead by failure detectors.
    pub suspects: u64,
    /// Breaker open transitions, summed over the router's breakers.
    pub breaker_opens: u64,
    /// Fabric datagrams delivered.
    pub fabric_delivered: u64,
    /// Fabric datagrams lost to drops or partitions.
    pub fabric_dropped: u64,
}

impl RunStats {
    /// JSON form for summaries and artifacts.
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::Num(v as i128);
        hre_svc::json::obj(vec![
            ("requests", n(self.requests)),
            ("ok", n(self.ok)),
            ("invalid", n(self.invalid)),
            ("busy", n(self.busy)),
            ("failed", n(self.failed)),
            ("hedges", n(self.hedges)),
            ("failovers", n(self.failovers)),
            ("errors", n(self.errors)),
            ("timeouts", n(self.timeouts)),
            ("wasted", n(self.wasted)),
            ("cache_hits", n(self.cache_hits)),
            ("cache_misses", n(self.cache_misses)),
            ("retransmits", n(self.retransmits)),
            ("elections", n(self.elections)),
            ("config_accepts", n(self.config_accepts)),
            ("config_rejects", n(self.config_rejects)),
            ("suspects", n(self.suspects)),
            ("breaker_opens", n(self.breaker_opens)),
            ("fabric_delivered", n(self.fabric_delivered)),
            ("fabric_dropped", n(self.fabric_dropped)),
        ])
    }
}

/// Everything one run produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// FNV-1a hash over the ordered transcript lines — the replay
    /// fingerprint (span/trace ids are excluded by construction).
    pub hash: u64,
    /// Invariant violations, empty on a healthy run.
    pub violations: Vec<String>,
    /// Counters.
    pub stats: RunStats,
    /// Full transcript when requested.
    pub transcript: Option<Vec<String>>,
    /// Rendered flight-recorder span tree when requested.
    pub spans: Option<String>,
    /// The router's counters for every backend slot the run created
    /// (slots dropped by a reconfiguration included), in creation order.
    pub backends: Vec<BackendSummary>,
}

/// Ordered transcript with a running FNV-1a fingerprint.
struct Tape {
    hash: u64,
    lines: Option<Vec<String>>,
}

impl Tape {
    fn new(collect: bool) -> Tape {
        Tape { hash: 0xcbf2_9ce4_8422_2325, lines: collect.then(Vec::new) }
    }

    fn note(&mut self, t_ns: u64, line: &str) {
        let full = format!("{t_ns} {line}");
        for b in full.bytes().chain(std::iter::once(b'\n')) {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
        if let Some(lines) = &mut self.lines {
            lines.push(full);
        }
    }
}

/// One attempt as the world sees it: where it went and what came back.
struct AttemptState {
    backend: u64,
    /// Index into [`Router::slots`].
    slot: usize,
    kind: AttemptKind,
    sent_ns: u64,
    resolved: bool,
    answer: Option<(u16, Option<String>)>,
    span: SpanId,
}

struct ReqState {
    elect: ElectRequest,
    shard: u64,
    d: usize,
    /// The router's machine for this request, from arrival to verdict.
    fwd: Option<Forward>,
    attempts: Vec<AttemptState>,
    admitted_ns: u64,
    deadline_ns: u64,
    /// The wake-up the machine last asked for (older ones are stale).
    wake_ns: Option<u64>,
    done: bool,
    trace: TraceId,
    root_span: SpanId,
}

struct QJob {
    req: u32,
    attempt: u32,
    deadline_ns: u64,
    arrived_ns: u64,
}

struct CfgMsg {
    epoch: u64,
    coordinator: u64,
    backends: Vec<u64>,
}

impl CfgMsg {
    fn to_payload(&self) -> Vec<u8> {
        hre_svc::json::obj(vec![
            ("cfg", Json::Num(1)),
            ("epoch", Json::Num(self.epoch as i128)),
            ("coordinator", Json::Num(self.coordinator as i128)),
            ("backends", hre_svc::json::nums(self.backends.iter().copied())),
        ])
        .to_string()
        .into_bytes()
    }

    fn from_json(v: &Json) -> Option<CfgMsg> {
        Some(CfgMsg {
            epoch: v.get("epoch")?.as_u64()?,
            coordinator: v.get("coordinator")?.as_u64()?,
            backends: v.get("backends")?.as_arr()?.iter().filter_map(Json::as_u64).collect(),
        })
    }
}

struct CtrlNode {
    incarnation: u64,
    view: View,
    view_version: u64,
    view_json: String,
    view_json_version: u64,
    last_seen: BTreeMap<u64, u64>,
    round_seen: u64,
    cfg_epoch: u64,
    cfg_backends: BTreeSet<u64>,
    last_elect_ns: Option<u64>,
    electing: bool,
}

struct Backend {
    alive: bool,
    generation: u32,
    lru: ShardedLru,
    busy: u32,
    queue: VecDeque<QJob>,
    ctrl: CtrlNode,
}

/// One backend slot the run created, with the world's own count of
/// what it fed the router machine about it (for I2).
struct SlotLog {
    slot: Arc<BackendSlot>,
    timeouts: u64,
    server_errors: u64,
}

struct Router {
    cfg: ClusterConfig,
    topo: Arc<Topology>,
    metrics: Arc<ClusterMetrics>,
    slots: Vec<SlotLog>,
    breaker_prev: BTreeMap<u64, BreakerState>,
    cfg_epoch: u64,
    coordinator: u64,
    accepted: BTreeMap<u64, (u64, Vec<u64>)>,
}

impl Router {
    /// Installs `topo`, logging any slot it created.
    fn install(&mut self, topo: Topology) {
        for slot in &topo.slots {
            if !self.slots.iter().any(|l| Arc::ptr_eq(&l.slot, slot)) {
                let slot = Arc::clone(slot);
                self.slots.push(SlotLog { slot, timeouts: 0, server_errors: 0 });
            }
        }
        self.topo = Arc::new(topo);
    }

    fn slot_index(&self, slot: &Arc<BackendSlot>) -> usize {
        self.slots.iter().position(|l| Arc::ptr_eq(&l.slot, slot)).expect("installed slot")
    }
}

/// The backend id a slot dials (ring names are the ids).
fn backend_id(slot: &BackendSlot) -> u64 {
    slot.addr().parse().expect("ring names are ids")
}

struct OutLink {
    window: RetransmitWindow,
    last_view_version: u64,
}

struct InLink {
    reader: FrameReader,
    reasm: Reassembly,
}

#[derive(Clone, Debug)]
enum Action {
    Kill(u64),
    Revive(u64),
    Cut(Vec<u64>),
    Heal,
    Slow(u64, u64, u64),
    Unslow(u64, u64),
    KillCoord,
    ReviveCoordVictim,
}

enum Ev {
    Arrival(u32),
    AttemptArrive {
        req: u32,
        attempt: u32,
        backend: u64,
    },
    JobDone {
        backend: u64,
        generation: u32,
        req: u32,
        attempt: u32,
        status: u16,
        body: Option<String>,
    },
    AttemptResponse {
        req: u32,
        attempt: u32,
        backend: u64,
        status: u16,
        body: Option<String>,
    },
    AttemptTimeout {
        req: u32,
        attempt: u32,
    },
    Wake {
        req: u32,
        at_ns: u64,
    },
    CtrlTick {
        node: u64,
    },
    RouterTick,
    Fault(u32),
    Announce {
        node: u64,
        epoch: u64,
        coordinator: u64,
        order: Vec<u64>,
    },
}

struct Pending {
    t_ns: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Pending {
    fn eq(&self, o: &Self) -> bool {
        self.t_ns == o.t_ns && self.seq == o.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Pending {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.t_ns, self.seq).cmp(&(o.t_ns, o.seq))
    }
}

/// Notes a breaker's state in the transcript when it changed. Reads
/// without side effects, so observing never admits a probe.
fn note_breaker(
    tape: &mut Tape,
    prev: &mut BTreeMap<u64, BreakerState>,
    breaker: &Breaker,
    b: u64,
    t_ns: u64,
) {
    let st = breaker.peek_state();
    if prev.insert(b, st) != Some(st) {
        tape.note(t_ns, &format!("breaker backend={b} state={}", st.as_str()));
    }
}

/// The full simulated stack for one plan.
pub struct World {
    plan: ScenarioPlan,
    opts: WorldOptions,
    clock: Arc<VirtualClock>,
    fabric: SimFabric,
    rng: Rng,
    heap: BinaryHeap<Reverse<Pending>>,
    evseq: u64,
    tape: Tape,
    stats: RunStats,
    violations: Vec<String>,
    backends: Vec<Backend>,
    router: Router,
    reqs: Vec<ReqState>,
    out_links: BTreeMap<(u64, u64), OutLink>,
    in_links: BTreeMap<(u64, u64), InLink>,
    blocked: BTreeSet<(u64, u64)>,
    slow: BTreeMap<(u64, u64), u64>,
    timeline: Vec<(u64, Action)>,
    fault_windows: Vec<(u64, u64)>,
    churn_victim: Option<u64>,
    duration_ns: u64,
    recorder: Option<Arc<FlightRecorder>>,
}

/// Runs `plan` to quiescence and reports the outcome.
pub fn run_plan(plan: &ScenarioPlan, opts: &WorldOptions) -> RunOutcome {
    let mut w = World::new(plan.clone(), *opts);
    w.bootstrap();
    let hard_stop = w.duration_ns * 2 + 1_000_000_000;
    loop {
        let next_ev = w.heap.peek().map(|Reverse(p)| p.t_ns);
        let next_fab = w.fabric.next_due().map(|d| d.as_nanos() as u64);
        let fab_first = match (next_ev, next_fab) {
            (None, None) => break,
            (Some(e), Some(f)) => f <= e,
            (None, Some(_)) => true,
            (Some(_), None) => false,
        };
        if fab_first {
            let f = next_fab.expect("fabric due");
            if f > hard_stop {
                break;
            }
            w.clock.advance_to_elapsed(Duration::from_nanos(f));
            w.fabric.deliver_due();
            w.drain_inboxes();
        } else {
            let Reverse(p) = w.heap.pop().expect("event peeked");
            if p.t_ns > hard_stop {
                break;
            }
            w.clock.advance_to_elapsed(Duration::from_nanos(p.t_ns));
            w.handle(p.ev);
        }
    }
    w.finish()
}

impl World {
    fn new(plan: ScenarioPlan, opts: WorldOptions) -> World {
        let clock = VirtualClock::new();
        let fabric = SimFabric::new(Arc::clone(&clock), plan.seed ^ 0xFA_B41C);
        fabric.set_default_profile(LinkProfile {
            latency: Duration::from_millis(2),
            jitter: Duration::from_millis(2),
            drop: 0.01,
            duplicate: 0.005,
        });
        let rng = Rng(plan.seed ^ 0x0DD_B411);
        let tape = Tape::new(opts.collect_transcript);
        let recorder = opts.record_spans.then(|| FlightRecorder::new(8192));
        let duration_ns = plan.duration_us * 1_000;
        World {
            plan,
            opts,
            clock,
            fabric,
            rng,
            heap: BinaryHeap::new(),
            evseq: 0,
            tape,
            stats: RunStats::default(),
            violations: Vec::new(),
            backends: Vec::new(),
            router: Router {
                cfg: ClusterConfig {
                    vnodes: 16,
                    deadline: Duration::from_nanos(DEADLINE_NS),
                    hedge_min: Duration::from_nanos(HEDGE_MIN_NS),
                    failure_threshold: 3,
                    probe_start: Duration::from_millis(80),
                    probe_cap: Duration::from_millis(640),
                    ..ClusterConfig::default()
                },
                topo: Arc::new(Topology::initial(&ClusterConfig::default())),
                metrics: Arc::new(ClusterMetrics::new()),
                slots: Vec::new(),
                breaker_prev: BTreeMap::new(),
                cfg_epoch: 0,
                coordinator: 0,
                accepted: BTreeMap::new(),
            },
            reqs: Vec::new(),
            out_links: BTreeMap::new(),
            in_links: BTreeMap::new(),
            blocked: BTreeSet::new(),
            slow: BTreeMap::new(),
            timeline: Vec::new(),
            fault_windows: Vec::new(),
            churn_victim: None,
            duration_ns,
            recorder,
        }
    }

    fn sched(&mut self, t_ns: u64, ev: Ev) {
        self.heap.push(Reverse(Pending { t_ns, seq: self.evseq, ev }));
        self.evseq += 1;
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    fn member_info(id: u64, incarnation: u64) -> MemberInfo {
        MemberInfo {
            id: id as MemberId,
            role: Role::Backend,
            ctrl_addr: format!("sim://{id}"),
            serve_addr: format!("sim://{id}/elect"),
            incarnation,
            status: Status::Alive,
        }
    }

    fn bootstrap(&mut self) {
        let n = self.plan.backends;
        // Full shared view: a static bootstrap list, as real fleets use.
        let mut base_view = View::new();
        for id in 0..n {
            base_view.observe(Self::member_info(id, 1));
        }
        let plan0 = base_view.ring_plan().expect("bootstrap members are live");
        let coordinator = plan0.expected_coordinator();
        let epoch0 = (1 << 8) | coordinator;
        for id in 0..n {
            self.backends.push(Backend {
                alive: true,
                generation: 0,
                lru: ShardedLru::new(256, 8),
                busy: 0,
                queue: VecDeque::new(),
                ctrl: CtrlNode {
                    incarnation: 1,
                    view: base_view.clone(),
                    view_version: 1,
                    view_json: String::new(),
                    view_json_version: 0,
                    last_seen: (0..n).filter(|p| *p != id).map(|p| (p, 0)).collect(),
                    round_seen: 1,
                    cfg_epoch: epoch0,
                    cfg_backends: (0..n).collect(),
                    last_elect_ns: None,
                    electing: false,
                },
            });
        }
        // The router's real topology over backends named by id: pools
        // dial nothing until an attempt is sent, and this world sends
        // none over sockets.
        self.router.cfg.backends = (0..n).map(|id| id.to_string()).collect();
        let topo = Topology::initial(&self.router.cfg);
        self.router.install(topo);
        for id in 0..n {
            self.router.breaker_prev.insert(id, BreakerState::Closed);
        }
        self.router.cfg_epoch = epoch0;
        self.router.coordinator = coordinator;
        self.router.accepted.insert(epoch0, (coordinator, (0..n).collect()));
        self.tape.note(
            0,
            &format!(
                "config accept epoch={epoch0} coordinator={coordinator} backends={:?} bootstrap",
                (0..n).collect::<Vec<u64>>()
            ),
        );
        // Client arrivals over the first three quarters of the run.
        let mut t = 30_000_000u64;
        for _ in 0..self.plan.requests {
            t += 8_000_000 + self.rng.next_u64() % 25_000_000;
            if t > self.duration_ns * 3 / 4 {
                break;
            }
            let elect = if self.plan.kind == ScenarioKind::AlgoMix {
                oracle::draw_request_diverse(&mut self.rng)
            } else {
                oracle::draw_request(&mut self.rng)
            };
            let (canon, d) = elect.canonicalized();
            let shard = shard_key(&canon.labels);
            self.reqs.push(ReqState {
                elect,
                shard,
                d,
                fwd: None,
                attempts: Vec::new(),
                admitted_ns: 0,
                deadline_ns: 0,
                wake_ns: None,
                done: false,
                trace: TraceId(0),
                root_span: SpanId(0),
            });
            self.sched(t, Ev::Arrival((self.reqs.len() - 1) as u32));
        }
        self.stats.requests = self.reqs.len() as u64;
        for id in 0..n {
            let stagger = HEARTBEAT_NS / (n + 1) * (id + 1);
            self.sched(stagger, Ev::CtrlTick { node: id });
        }
        self.sched(ROUTER_TICK_NS, Ev::RouterTick);
        // Expand the fault timetable.
        let mut timeline = Vec::new();
        let mut windows = Vec::new();
        for f in &self.plan.faults {
            match f {
                FaultSpec::Kill { backend, at_us, revive_after_us } => {
                    let at = at_us * 1_000;
                    let end = (at_us + revive_after_us) * 1_000;
                    timeline.push((at, Action::Kill(*backend)));
                    timeline.push((end, Action::Revive(*backend)));
                    windows.push((at, end + WINDOW_MARGIN_NS));
                }
                FaultSpec::KillCoordinator { at_us, revive_after_us } => {
                    let at = at_us * 1_000;
                    let end = (at_us + revive_after_us) * 1_000;
                    timeline.push((at, Action::KillCoord));
                    timeline.push((end, Action::ReviveCoordVictim));
                    windows.push((at, end + WINDOW_MARGIN_NS));
                }
                FaultSpec::Partition { isolated, at_us, heal_after_us } => {
                    let at = at_us * 1_000;
                    let end = (at_us + heal_after_us) * 1_000;
                    timeline.push((at, Action::Cut(isolated.clone())));
                    timeline.push((end, Action::Heal));
                    windows.push((at, end + WINDOW_MARGIN_NS));
                }
                FaultSpec::SlowLink { from, to, extra_us, at_us, duration_us } => {
                    let at = at_us * 1_000;
                    let end = (at_us + duration_us) * 1_000;
                    timeline.push((at, Action::Slow(*from, *to, extra_us * 1_000)));
                    timeline.push((end, Action::Unslow(*from, *to)));
                    windows.push((at, end + WINDOW_MARGIN_NS));
                }
            }
        }
        timeline.sort_by_key(|(t, _)| *t);
        for (i, (t, _)) in timeline.iter().enumerate() {
            self.sched(*t, Ev::Fault(i as u32));
        }
        self.timeline = timeline;
        self.fault_windows = windows;
    }

    /// Seeded one-way latency for the modeled data path (router ↔
    /// backend request/response hops), honoring slow-link faults.
    fn data_latency_ns(&mut self, from: u64, to: u64) -> u64 {
        let base = 1_500_000 + self.rng.next_u64() % 1_500_000;
        base + self.slow.get(&(from, to)).copied().unwrap_or(0)
    }

    fn drain_inboxes(&mut self) {
        let n = self.plan.backends;
        for node in (0..n).chain(std::iter::once(ROUTER)) {
            while let Some(dg) = self.fabric.try_recv(node as u32) {
                self.handle_datagram(dg);
            }
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival(req) => self.on_arrival(req),
            Ev::AttemptArrive { req, attempt, backend } => {
                self.on_attempt_arrive(req, attempt, backend)
            }
            Ev::JobDone { backend, generation, req, attempt, status, body } => {
                self.on_job_done(backend, generation, req, attempt, status, body)
            }
            Ev::AttemptResponse { req, attempt, backend, status, body } => {
                self.on_attempt_response(req, attempt, backend, status, body)
            }
            Ev::AttemptTimeout { req, attempt } => self.on_attempt_timeout(req, attempt),
            Ev::Wake { req, at_ns } => {
                if self.reqs[req as usize].wake_ns == Some(at_ns) {
                    self.reqs[req as usize].wake_ns = None;
                    self.drive(req);
                }
            }
            Ev::CtrlTick { node } => self.on_ctrl_tick(node),
            Ev::RouterTick => self.on_router_tick(),
            Ev::Fault(i) => self.on_fault(i),
            Ev::Announce { node, epoch, coordinator, order } => {
                self.on_announce(node, epoch, coordinator, order)
            }
        }
    }

    // ---- client request path (router + backends) -------------------

    fn on_arrival(&mut self, req: u32) {
        let now = self.now_ns();
        let now_i = self.clock.now();
        let fwd = Forward::new(
            Arc::clone(&self.router.topo),
            Arc::clone(&self.router.metrics),
            self.reqs[req as usize].shard,
            now_i,
            now_i + self.router.cfg.deadline,
            self.router.cfg.hedge_min,
        );
        let cands: Vec<u64> =
            fwd.candidates().iter().map(|&i| backend_id(&fwd.topology().slots[i])).collect();
        let r = &mut self.reqs[req as usize];
        r.admitted_ns = now;
        r.deadline_ns = now + DEADLINE_NS;
        if let Some(rec) = &self.recorder {
            r.trace = rec.mint_trace();
            r.root_span = rec.next_span_id();
        }
        self.tape.note(now, &format!("req={req} arrive shard={:x} cands={cands:?}", r.shard));
        r.fwd = Some(fwd);
        self.drive(req);
    }

    /// Carries out the router machine's steps for `req` until it waits
    /// or decides.
    fn drive(&mut self, req: u32) {
        loop {
            let now_i = self.clock.now();
            let r = &mut self.reqs[req as usize];
            let fwd = r.fwd.as_mut().expect("undecided request has a machine");
            match fwd.poll(now_i) {
                Step::Launch { attempt, slot, kind } => {
                    let slot = Arc::clone(&fwd.topology().slots[slot]);
                    self.send_attempt(req, attempt, &slot, kind);
                }
                Step::Wait(at) => {
                    let at_ns = at.saturating_duration_since(self.clock.epoch()).as_nanos() as u64;
                    if r.wake_ns != Some(at_ns) {
                        r.wake_ns = Some(at_ns);
                        self.sched(at_ns, Ev::Wake { req, at_ns });
                    }
                    return;
                }
                Step::Done(verdict) => return self.decide(req, verdict),
            }
        }
    }

    fn send_attempt(
        &mut self,
        req: u32,
        attempt: usize,
        slot: &Arc<BackendSlot>,
        kind: AttemptKind,
    ) {
        let now = self.now_ns();
        let backend = backend_id(slot);
        let span = self.recorder.as_ref().map(|r| r.next_span_id()).unwrap_or(SpanId(0));
        self.reqs[req as usize].attempts.push(AttemptState {
            backend,
            slot: self.router.slot_index(slot),
            kind,
            sent_ns: now,
            resolved: false,
            answer: None,
            span,
        });
        self.tape.note(
            now,
            &format!("req={req} attempt={attempt} backend={backend} kind={}", kind.as_str()),
        );
        let attempt = attempt as u32;
        if !self.blocked.contains(&(ROUTER, backend)) {
            let lat = self.data_latency_ns(ROUTER, backend);
            self.sched(now + lat, Ev::AttemptArrive { req, attempt, backend });
        }
        self.sched(now + ATTEMPT_TIMEOUT_NS, Ev::AttemptTimeout { req, attempt });
    }

    fn on_attempt_arrive(&mut self, req: u32, attempt: u32, backend: u64) {
        let now = self.now_ns();
        if self.blocked.contains(&(ROUTER, backend)) || !self.backends[backend as usize].alive {
            return;
        }
        let deadline_ns = self.reqs[req as usize].deadline_ns;
        let free = {
            let b = &self.backends[backend as usize];
            b.busy < WORKERS
        };
        if free {
            self.start_job(backend, QJob { req, attempt, deadline_ns, arrived_ns: now });
        } else if self.backends[backend as usize].queue.len() < QUEUE_CAP {
            self.backends[backend as usize].queue.push_back(QJob {
                req,
                attempt,
                deadline_ns,
                arrived_ns: now,
            });
        } else {
            // Queue full: shed immediately, as the real pool does.
            let lat = self.data_latency_ns(backend, ROUTER);
            self.sched(
                now + lat,
                Ev::AttemptResponse { req, attempt, backend, status: 503, body: None },
            );
        }
    }

    fn start_job(&mut self, backend: u64, job: QJob) {
        let now = self.now_ns();
        let (elect, d) = {
            let r = &self.reqs[job.req as usize];
            (r.elect.clone(), r.d)
        };
        let n = elect.labels.len();
        let (canon, _) = elect.canonicalized();
        let key = CacheKey::new(&canon.labels, canon.algo, canon.k);
        let b = &mut self.backends[backend as usize];
        let (cost, result) = match b.lru.get(&key) {
            Some(hit) => {
                self.stats.cache_hits += 1;
                (HIT_COST_NS, hit)
            }
            None => {
                self.stats.cache_misses += 1;
                let (result, _) = oracle::elect_canonical(&elect);
                b.lru.insert(key, result.clone());
                (MISS_BASE_NS + MISS_PER_LABEL_NS * n as u64, result)
            }
        };
        let (status, body) = match result {
            Ok(out) => (200u16, response_json(&elect, &out.into_coords(d, n))),
            Err(e) => (422u16, error_json(&e)),
        };
        b.busy += 1;
        if let (Some(rec), true) = (&self.recorder, job.arrived_ns < now) {
            let r = &self.reqs[job.req as usize];
            let epoch = self.clock.epoch();
            rec.record_span(
                r.trace,
                r.attempts[job.attempt as usize].span,
                Stage::QueueWait,
                epoch + Duration::from_nanos(job.arrived_ns),
                epoch + Duration::from_nanos(now),
                SpanAttrs { a: backend, ..Default::default() },
            );
        }
        self.sched(
            now + cost,
            Ev::JobDone {
                backend,
                generation: self.backends[backend as usize].generation,
                req: job.req,
                attempt: job.attempt,
                status,
                body: Some(body),
            },
        );
    }

    fn on_job_done(
        &mut self,
        backend: u64,
        generation: u32,
        req: u32,
        attempt: u32,
        status: u16,
        body: Option<String>,
    ) {
        let now = self.now_ns();
        if self.backends[backend as usize].generation != generation {
            return; // the backend died (and possibly revived) mid-job
        }
        self.backends[backend as usize].busy -= 1;
        if self.backends[backend as usize].alive && !self.blocked.contains(&(backend, ROUTER)) {
            let lat = self.data_latency_ns(backend, ROUTER);
            self.sched(now + lat, Ev::AttemptResponse { req, attempt, backend, status, body });
        }
        // Pull queued work, shedding anything that expired while queued.
        loop {
            let job = {
                let b = &mut self.backends[backend as usize];
                if b.busy >= WORKERS || !b.alive {
                    break;
                }
                match b.queue.pop_front() {
                    Some(j) => j,
                    None => break,
                }
            };
            if now > job.deadline_ns {
                let lat = self.data_latency_ns(backend, ROUTER);
                self.sched(
                    now + lat,
                    Ev::AttemptResponse {
                        req: job.req,
                        attempt: job.attempt,
                        backend,
                        status: 504,
                        body: None,
                    },
                );
                continue;
            }
            self.start_job(backend, job);
        }
    }

    fn on_attempt_response(
        &mut self,
        req: u32,
        attempt: u32,
        backend: u64,
        status: u16,
        body: Option<String>,
    ) {
        if !self.blocked.contains(&(backend, ROUTER)) {
            self.resolve(req, attempt, Some((status, body)));
        } // else the response died on a partition cut
    }

    fn on_attempt_timeout(&mut self, req: u32, attempt: u32) {
        self.resolve(req, attempt, None);
    }

    /// Feeds an attempt's outcome to its request's machine: a backend
    /// answer, or `None` for a timeout (a transport failure to the
    /// router), then drives the machine on.
    fn resolve(&mut self, req: u32, attempt: u32, answer: Option<(u16, Option<String>)>) {
        let (now, now_i) = (self.now_ns(), self.clock.now());
        let r = &mut self.reqs[req as usize];
        let a = &mut r.attempts[attempt as usize];
        if r.done || a.resolved {
            // A late answer: the router's receiver is gone, as in
            // production.
            self.stats.wasted += answer.is_some() as u64;
            return;
        }
        a.resolved = true;
        let log = &mut self.router.slots[a.slot];
        let fwd = r.fwd.as_mut().expect("undecided request has a machine");
        let (what, err) = match answer {
            Some((status, body)) => {
                log.server_errors += (status >= 500 && status != 503) as u64;
                fwd.on_response(now_i, attempt as usize, status);
                a.answer = Some((status, body));
                (format!("answer status={status}"), status >= 500)
            }
            None => {
                self.stats.timeouts += 1;
                log.timeouts += 1;
                // THE PLANTED REGRESSION: when armed, a failover or hedge
                // attempt's timeout reaches the router as a 503, which
                // books a breaker success instead of a failure.
                let record = !(self.opts.planted_regression && attempt > 0);
                if record {
                    fwd.on_failure(now_i, attempt as usize);
                } else {
                    fwd.on_response(now_i, attempt as usize, 503);
                    a.answer = Some((503, None));
                }
                (format!("timeout recorded={record}"), true)
            }
        };
        let backend = a.backend;
        let prev = &mut self.router.breaker_prev;
        note_breaker(&mut self.tape, prev, &log.slot.breaker, backend, now);
        if let Some(rec) = &self.recorder {
            let epoch = self.clock.epoch();
            rec.record_span_with_id(
                a.span,
                r.trace,
                r.root_span,
                if a.kind == AttemptKind::Hedge { Stage::Hedge } else { Stage::Attempt },
                epoch + Duration::from_nanos(a.sent_ns),
                epoch + Duration::from_nanos(now),
                SpanAttrs { a: backend, err, ..Default::default() },
            );
        }
        self.tape.note(now, &format!("req={req} attempt={attempt} {what} backend={backend}"));
        self.drive(req);
    }

    /// The machine's verdict: relay an answer or fail the request.
    fn decide(&mut self, req: u32, verdict: Verdict) {
        let now = self.now_ns();
        let r = &mut self.reqs[req as usize];
        r.fwd = None;
        r.wake_ns = None;
        let (status, body, backend) = match verdict {
            Verdict::Relay(i) => {
                let a = &r.attempts[i];
                let (status, body) = a.answer.clone().expect("relayed attempts answered");
                (status, body, a.backend)
            }
            Verdict::Exhausted => return self.fail(req, 502, "exhausted"),
            Verdict::DeadlineExpired => return self.fail(req, 504, "deadline"),
        };
        match status {
            200 => {
                self.check_answer(req, backend, body.as_deref());
                self.stats.ok += 1;
            }
            422 => self.stats.invalid += 1,
            503 => self.stats.busy += 1,
            status => return self.fail(req, status, "relayed"),
        }
        let r = &self.reqs[req as usize];
        self.tape.note(
            now,
            &format!(
                "req={req} done status={status} backend={backend} attempts={} lat_us={}",
                r.attempts.len(),
                (now - r.admitted_ns) / 1_000
            ),
        );
        self.close(req, status);
    }

    /// I3: a relayed 200 body must equal the oracle's independent
    /// recomputation, byte for byte; and I0 (generalized): its leader
    /// must satisfy the request algorithm's declarative winner rule,
    /// whichever engine served it.
    fn check_answer(&mut self, req: u32, backend: u64, body: Option<&str>) {
        let r = &self.reqs[req as usize];
        let (elect, d) = (r.elect.clone(), r.d);
        let (oracle_result, od) = oracle::elect_canonical(&elect);
        debug_assert_eq!(d, od);
        let expect = match oracle_result {
            Ok(out) => {
                let out = out.into_coords(od, elect.labels.len());
                let ring = hre_ring::RingLabeling::from_raw(&elect.labels);
                let want =
                    hre_algos::by_name(elect.algo.name()).and_then(|e| e.oracle_leader(&ring));
                if let Some(want) = want.filter(|&w| out.leader != w) {
                    self.violations.push(format!(
                        "I0 leader violates {} winner rule: req={req} got={} expected={want}",
                        elect.algo.name(),
                        out.leader
                    ));
                }
                response_json(&elect, &out)
            }
            Err(e) => error_json(&e),
        };
        if body != Some(expect.as_str()) {
            self.violations.push(format!(
                "I3 response body diverges from oracle: req={req} backend={backend}"
            ));
        }
    }

    /// A client-visible failure, with the I2 attribution check: the
    /// moment must be inside a fault window or have some breaker not
    /// closed.
    fn fail(&mut self, req: u32, status: u16, reason: &str) {
        let now = self.now_ns();
        self.stats.failed += 1;
        let attempts = self.reqs[req as usize].attempts.len();
        self.tape.note(
            now,
            &format!("req={req} fail status={status} reason={reason} attempts={attempts}"),
        );
        let in_window = self.fault_windows.iter().any(|(s, e)| now >= *s && now <= *e);
        let slots = &self.router.topo.slots;
        if !in_window && slots.iter().all(|s| s.breaker.peek_state() == BreakerState::Closed) {
            self.violations.push(format!(
                "I2 unexplained client failure: req={req} status={status} at t={now} \
                 with no fault window and every breaker closed"
            ));
        }
        self.close(req, status);
    }

    /// Terminal bookkeeping: the request is done; record its root span.
    fn close(&mut self, req: u32, status: u16) {
        let now = self.now_ns();
        let r = &mut self.reqs[req as usize];
        r.done = true;
        if let Some(rec) = &self.recorder {
            let epoch = self.clock.epoch();
            rec.record_span_with_id(
                r.root_span,
                r.trace,
                SpanId(0),
                Stage::Request,
                epoch + Duration::from_nanos(r.admitted_ns),
                epoch + Duration::from_nanos(now),
                SpanAttrs {
                    a: status as u64,
                    root: true,
                    err: status >= 500,
                    ..Default::default()
                },
            );
        }
    }

    // ---- router maintenance ----------------------------------------

    fn on_router_tick(&mut self) {
        let now = self.now_ns();
        let now_i = self.clock.now();
        let topo = Arc::clone(&self.router.topo);
        for slot in &topo.slots {
            let (b, br) = (backend_id(slot), &slot.breaker);
            note_breaker(&mut self.tape, &mut self.router.breaker_prev, br, b, now);
            if br.state_at(now_i) == BreakerState::HalfOpen {
                let reachable = !self.blocked.contains(&(ROUTER, b))
                    && !self.blocked.contains(&(b, ROUTER))
                    && self.backends.get(b as usize).map(|x| x.alive).unwrap_or(false);
                if reachable {
                    br.record_success();
                } else {
                    br.record_failure_at(now_i);
                }
                self.tape.note(now, &format!("probe backend={b} ok={reachable}"));
                note_breaker(&mut self.tape, &mut self.router.breaker_prev, br, b, now);
            }
        }
        if now < self.duration_ns {
            self.sched(now + ROUTER_TICK_NS, Ev::RouterTick);
        }
    }

    // ---- control plane ---------------------------------------------

    fn refresh_view_json(ctrl: &mut CtrlNode) {
        if ctrl.view_json_version != ctrl.view_version {
            ctrl.view_json = ctrl.view.to_json().to_string();
            ctrl.view_json_version = ctrl.view_version;
        }
    }

    fn on_ctrl_tick(&mut self, node: u64) {
        let now = self.now_ns();
        if now < self.duration_ns {
            self.sched(now + HEARTBEAT_NS, Ev::CtrlTick { node });
        }
        if !self.backends[node as usize].alive {
            return;
        }
        let n = self.plan.backends;
        // Refutation: if gossip says I'm dead, rejoin louder.
        {
            let ctrl = &mut self.backends[node as usize].ctrl;
            let me_dead = ctrl
                .view
                .member(node as MemberId)
                .map(|m| m.status == Status::Dead)
                .unwrap_or(false);
            if me_dead {
                ctrl.incarnation += 1;
                ctrl.view.observe(Self::member_info(node, ctrl.incarnation));
                ctrl.view_version += 1;
                self.tape.note(
                    now,
                    &format!("ctrl node={node} refute incarnation={}", ctrl.incarnation),
                );
            }
        }
        // Failure detection.
        let stale: Vec<u64> = {
            let ctrl = &self.backends[node as usize].ctrl;
            (0..n)
                .filter(|p| *p != node)
                .filter(|p| ctrl.view.is_live(*p as MemberId))
                .filter(|p| ctrl.last_seen.get(p).copied().unwrap_or(0) + FAIL_TIMEOUT_NS < now)
                .collect()
        };
        for p in stale {
            let ctrl = &mut self.backends[node as usize].ctrl;
            if ctrl.view.declare_dead(p as MemberId) {
                ctrl.view_version += 1;
                self.stats.suspects += 1;
                self.tape.note(now, &format!("ctrl node={node} suspect peer={p}"));
            }
        }
        // Gossip out + pump retransmits on every out-link.
        Self::refresh_view_json(&mut self.backends[node as usize].ctrl);
        let now_i = self.clock.now();
        for peer in (0..n).filter(|p| *p != node) {
            let view_version = self.backends[node as usize].ctrl.view_version;
            let payload: Option<Vec<u8>> = {
                let link = self.out_links.entry((node, peer)).or_insert_with(|| OutLink {
                    window: RetransmitWindow::new(GOSSIP_RTO),
                    last_view_version: 0,
                });
                if link.window.len() >= 8 {
                    None // backpressure: the peer is unreachable anyway
                } else if link.last_view_version < view_version {
                    link.last_view_version = view_version;
                    Some(self.backends[node as usize].ctrl.view_json.clone().into_bytes())
                } else {
                    Some(b"hb".to_vec())
                }
            };
            if let Some(p) = payload {
                let link = self.out_links.get_mut(&(node, peer)).expect("just ensured");
                let seq = link.window.next_seq();
                link.window.insert(seq, encode_frame(seq, KIND_DATA, &p), now_i);
            }
            self.pump_link(node, peer);
        }
        // Pump the router push link too, if it exists.
        if self.out_links.contains_key(&(node, ROUTER)) {
            self.pump_link(node, ROUTER);
        }
        // Election check: the first live member of my plan initiates
        // when the live set no longer matches the installed config.
        let decision = {
            let ctrl = &self.backends[node as usize].ctrl;
            match ctrl.view.ring_plan() {
                Some(plan) if plan.order.first() == Some(&(node as MemberId)) => {
                    let live: BTreeSet<u64> = plan.order.iter().copied().collect();
                    let cooled = ctrl
                        .last_elect_ns
                        .map(|t| now.saturating_sub(t) >= ELECT_COOLDOWN_NS)
                        .unwrap_or(true);
                    if live != ctrl.cfg_backends && cooled && !ctrl.electing {
                        Some(plan)
                    } else {
                        None
                    }
                }
                _ => None,
            }
        };
        if let Some(plan) = decision {
            self.start_election(node, plan);
        }
    }

    fn start_election(&mut self, node: u64, plan: RingPlan) {
        let now = self.now_ns();
        let round = self.backends[node as usize].ctrl.round_seen + 1;
        self.backends[node as usize].ctrl.round_seen = round;
        let epoch = (round << 8) | node;
        // Run the real Ak over the plan's salted labeling (memoized):
        // the coordinator is whoever owns the elected label.
        let (coordinator, messages) = if plan.len() == 1 {
            (plan.order[0], 0)
        } else {
            let req = ElectRequest::new(plan.labels.clone(), AlgoId::Ak, Some(1))
                .expect("plan labels form a valid ring");
            let (result, d) = oracle::elect_canonical(&req);
            match result {
                Ok(out) => {
                    let out = out.into_coords(d, plan.len());
                    (plan.order[out.leader], out.messages)
                }
                Err(e) => {
                    self.violations.push(format!("I0 election failed on plan at node {node}: {e}"));
                    (plan.expected_coordinator(), 0)
                }
            }
        };
        // I0: Ak must elect the Lyndon-rotation owner.
        let expected = plan.expected_coordinator();
        if coordinator != expected {
            self.violations.push(format!(
                "I0 election diverges from Lyndon oracle: node={node} got={coordinator} \
                 expected={expected}"
            ));
        }
        let latency = 400_000 + messages * 150_000;
        let order: Vec<u64> = plan.order.to_vec();
        self.backends[node as usize].ctrl.electing = true;
        self.backends[node as usize].ctrl.last_elect_ns = Some(now);
        self.stats.elections += 1;
        self.tape.note(
            now,
            &format!(
                "elect node={node} epoch={epoch} coordinator={coordinator} size={}",
                plan.len()
            ),
        );
        if let Some(rec) = &self.recorder {
            let epoch_i = self.clock.epoch();
            let t = rec.mint_trace();
            rec.record_span(
                t,
                SpanId(0),
                Stage::Membership,
                epoch_i + Duration::from_nanos(now),
                epoch_i + Duration::from_nanos(now + latency),
                SpanAttrs { a: epoch, b: plan.len() as u64, root: true, ..Default::default() },
            );
        }
        self.sched(now + latency, Ev::Announce { node, epoch, coordinator, order });
    }

    fn on_announce(&mut self, node: u64, epoch: u64, coordinator: u64, order: Vec<u64>) {
        let now = self.now_ns();
        self.backends[node as usize].ctrl.electing = false;
        if !self.backends[node as usize].alive {
            return;
        }
        {
            let ctrl = &mut self.backends[node as usize].ctrl;
            ctrl.cfg_epoch = epoch;
            ctrl.cfg_backends = order.iter().copied().collect();
        }
        self.tape.note(
            now,
            &format!(
                "announce node={node} epoch={epoch} coordinator={coordinator} backends={order:?}"
            ),
        );
        let cfg = CfgMsg { epoch, coordinator, backends: order.clone() };
        let payload = cfg.to_payload();
        let now_i = self.clock.now();
        let n = self.plan.backends;
        for dest in (0..n).filter(|p| *p != node).chain(std::iter::once(ROUTER)) {
            let link = self.out_links.entry((node, dest)).or_insert_with(|| OutLink {
                window: RetransmitWindow::new(GOSSIP_RTO),
                last_view_version: 0,
            });
            if link.window.len() >= 12 {
                continue;
            }
            let seq = link.window.next_seq();
            link.window.insert(seq, encode_frame(seq, KIND_DATA, &payload), now_i);
            self.pump_link(node, dest);
        }
    }

    /// Sends every due frame on the reliable link `from → to` into the
    /// fabric, counting retransmissions.
    fn pump_link(&mut self, from: u64, to: u64) {
        let now = self.now_ns();
        let now_i = self.clock.now();
        let link = match self.out_links.get_mut(&(from, to)) {
            Some(l) => l,
            None => return,
        };
        for seq in link.window.due(now_i) {
            let (bytes, attempts) = link.window.begin_send(seq, now_i).expect("due seq in window");
            if attempts > 1 {
                self.stats.retransmits += 1;
                self.tape.note(
                    now,
                    &format!("gossip retransmit from={from} to={to} seq={seq} attempt={attempts}"),
                );
                if let Some(rec) = &self.recorder {
                    let t = rec.mint_trace();
                    rec.record_event(t, SpanId(0), Stage::Retransmit, seq, attempts as u64);
                }
            }
            self.fabric.send(from as u32, to as u32, bytes);
        }
    }

    fn handle_datagram(&mut self, dg: hre_runtime::Datagram) {
        let now_i = self.clock.now();
        let from = dg.from as u64;
        let to = dg.to as u64;
        let link = self
            .in_links
            .entry((from, to))
            .or_insert_with(|| InLink { reader: FrameReader::new(), reasm: Reassembly::new() });
        link.reader.extend(&dg.bytes);
        let mut delivered: Vec<Vec<u8>> = Vec::new();
        let mut ack: Option<u64> = None;
        while let Some(frame) = link.reader.next_frame() {
            let frame = match frame {
                Ok(f) => f,
                Err(_) => continue,
            };
            if frame.kind == KIND_ACK {
                if let Some(out) = self.out_links.get_mut(&(to, from)) {
                    out.window.ack(frame.seq, now_i);
                }
                continue;
            }
            match link.reasm.offer(frame.seq, frame.payload) {
                Offer::Delivered(payloads) => delivered.extend(payloads),
                Offer::Buffered | Offer::Duplicate => {}
            }
            ack = Some(link.reasm.cumulative_ack());
        }
        if let Some(cum) = ack {
            self.fabric.send(to as u32, from as u32, encode_frame(cum, KIND_ACK, &[]));
        }
        for payload in delivered {
            self.deliver_payload(to, from, payload);
        }
    }

    fn deliver_payload(&mut self, to: u64, from: u64, payload: Vec<u8>) {
        let now = self.now_ns();
        if to == ROUTER {
            if let Ok(text) = String::from_utf8(payload) {
                if let Ok(v) = Json::parse(&text) {
                    if v.get("cfg").is_some() {
                        if let Some(cfg) = CfgMsg::from_json(&v) {
                            self.router_accept_config(cfg);
                        }
                    }
                }
            }
            return;
        }
        if !self.backends[to as usize].alive {
            return;
        }
        self.backends[to as usize].ctrl.last_seen.insert(from, now);
        if payload == b"hb" {
            return;
        }
        let text = match String::from_utf8(payload) {
            Ok(t) => t,
            Err(_) => return,
        };
        let v = match Json::parse(&text) {
            Ok(v) => v,
            Err(_) => return,
        };
        if v.get("cfg").is_some() {
            if let Some(cfg) = CfgMsg::from_json(&v) {
                let ctrl = &mut self.backends[to as usize].ctrl;
                if cfg.epoch >= ctrl.cfg_epoch {
                    ctrl.cfg_epoch = cfg.epoch;
                    ctrl.cfg_backends = cfg.backends.iter().copied().collect();
                    ctrl.round_seen = ctrl.round_seen.max(cfg.epoch >> 8);
                }
            }
            return;
        }
        if let Ok(view) = View::from_json(&v) {
            let ctrl = &mut self.backends[to as usize].ctrl;
            if ctrl.view.merge(&view) {
                ctrl.view_version += 1;
            }
        }
    }

    fn router_accept_config(&mut self, cfg: CfgMsg) {
        let now = self.now_ns();
        let mut sorted = cfg.backends.clone();
        sorted.sort_unstable();
        // I1: one config per epoch, forever.
        if let Some((coord, backs)) = self.router.accepted.get(&cfg.epoch) {
            if *coord != cfg.coordinator || *backs != sorted {
                self.violations.push(format!(
                    "I1 split-brain config: epoch={} previously ({coord}, {backs:?}), \
                     now ({}, {sorted:?})",
                    cfg.epoch, cfg.coordinator
                ));
            }
        }
        let accepted = cfg.epoch > self.router.cfg_epoch;
        if let Some(rec) = &self.recorder {
            let t = rec.mint_trace();
            rec.record_event(t, SpanId(0), Stage::Reconfigure, cfg.epoch, accepted as u64);
        }
        if !accepted {
            if cfg.epoch < self.router.cfg_epoch {
                self.stats.config_rejects += 1;
                self.tape.note(now, &format!("config reject epoch={} stale", cfg.epoch));
            }
            return;
        }
        self.router.accepted.insert(cfg.epoch, (cfg.coordinator, sorted.clone()));
        self.router.cfg_epoch = cfg.epoch;
        self.router.coordinator = cfg.coordinator;
        let names: Vec<String> = sorted.iter().map(|id| id.to_string()).collect();
        let next = self.router.topo.successor(cfg.epoch, &names, &self.router.cfg);
        self.router.install(next);
        self.stats.config_accepts += 1;
        self.tape.note(
            now,
            &format!(
                "config accept epoch={} coordinator={} backends={sorted:?}",
                cfg.epoch, cfg.coordinator
            ),
        );
    }

    // ---- faults -----------------------------------------------------

    fn on_fault(&mut self, idx: u32) {
        let action = self.timeline[idx as usize].1.clone();
        match action {
            Action::Kill(b) => self.apply_kill(b),
            Action::Revive(b) => self.apply_revive(b),
            Action::KillCoord => {
                let victim = self.router.coordinator;
                self.churn_victim = Some(victim);
                self.apply_kill(victim);
            }
            Action::ReviveCoordVictim => {
                if let Some(victim) = self.churn_victim.take() {
                    self.apply_revive(victim);
                }
            }
            Action::Cut(isolated) => {
                let now = self.now_ns();
                let n = self.plan.backends;
                let rest: Vec<u64> =
                    (0..n).filter(|b| !isolated.contains(b)).chain([ROUTER]).collect();
                let groups: Vec<Vec<u32>> = vec![
                    isolated.iter().map(|b| *b as u32).collect(),
                    rest.iter().map(|b| *b as u32).collect(),
                ];
                self.fabric.partition(&groups);
                for a in &isolated {
                    for b in &rest {
                        self.blocked.insert((*a, *b));
                        self.blocked.insert((*b, *a));
                    }
                }
                self.tape.note(now, &format!("fault partition isolated={isolated:?}"));
            }
            Action::Heal => {
                let now = self.now_ns();
                self.fabric.heal();
                self.blocked.clear();
                self.tape.note(now, "fault heal");
            }
            Action::Slow(from, to, extra_ns) => {
                let now = self.now_ns();
                self.fabric.set_link(
                    from as u32,
                    to as u32,
                    LinkProfile {
                        latency: Duration::from_millis(2) + Duration::from_nanos(extra_ns),
                        jitter: Duration::from_millis(2),
                        drop: 0.01,
                        duplicate: 0.005,
                    },
                );
                self.slow.insert((from, to), extra_ns);
                self.tape.note(now, &format!("fault slow from={from} to={to} extra_ns={extra_ns}"));
            }
            Action::Unslow(from, to) => {
                let now = self.now_ns();
                self.fabric.set_link(
                    from as u32,
                    to as u32,
                    LinkProfile {
                        latency: Duration::from_millis(2),
                        jitter: Duration::from_millis(2),
                        drop: 0.01,
                        duplicate: 0.005,
                    },
                );
                self.slow.remove(&(from, to));
                self.tape.note(now, &format!("fault unslow from={from} to={to}"));
            }
        }
    }

    fn apply_kill(&mut self, b: u64) {
        let now = self.now_ns();
        if b as usize >= self.backends.len() || !self.backends[b as usize].alive {
            return;
        }
        let backend = &mut self.backends[b as usize];
        backend.alive = false;
        backend.generation += 1;
        backend.busy = 0;
        backend.queue.clear();
        self.tape.note(now, &format!("fault kill backend={b}"));
    }

    fn apply_revive(&mut self, b: u64) {
        let now = self.now_ns();
        if b as usize >= self.backends.len() || self.backends[b as usize].alive {
            return;
        }
        let backend = &mut self.backends[b as usize];
        backend.alive = true;
        backend.ctrl.incarnation += 1;
        let info = Self::member_info(b, backend.ctrl.incarnation);
        backend.ctrl.view.observe(info);
        backend.ctrl.view_version += 1;
        // Grace for peers: everyone was "just seen" so the reviver
        // doesn't instantly suspect the whole fleet.
        let peers: Vec<u64> = backend.ctrl.last_seen.keys().copied().collect();
        for p in peers {
            backend.ctrl.last_seen.insert(p, now);
        }
        self.tape.note(
            now,
            &format!("fault revive backend={b} incarnation={}", backend.ctrl.incarnation),
        );
    }

    // ---- teardown ---------------------------------------------------

    fn finish(mut self) -> RunOutcome {
        let now = self.now_ns();
        // I2a: every timed-out attempt — on any request, however it
        // ended — must have reached the router's breaker bookkeeping:
        // each backend's production error count equals the timeouts the
        // world injected plus the 5xx answers it relayed. Checked
        // globally because a swallowed failure on a request that later
        // succeeds is exactly the kind of silent health-signal
        // under-count the planted regression models.
        for (i, log) in self.router.slots.iter().enumerate() {
            let counted = log.slot.metrics.errors.load(Ordering::Relaxed);
            if counted != log.timeouts + log.server_errors {
                self.violations.push(format!(
                    "I2 unattributed timeout: backend={} slot={i} timed out {} attempt(s) and \
                     answered {} 5xx, but the router counted {counted} error(s)",
                    log.slot.addr(),
                    log.timeouts,
                    log.server_errors
                ));
            }
        }
        let backends: Vec<BackendSummary> =
            self.router.slots.iter().map(|l| BackendSummary::of(&l.slot)).collect();
        self.stats.hedges = backends.iter().map(|b| b.hedges).sum();
        self.stats.failovers = backends.iter().map(|b| b.failovers).sum();
        self.stats.errors = backends.iter().map(|b| b.errors).sum();
        self.stats.breaker_opens = backends.iter().map(|b| b.breaker_opens).sum();
        self.stats.fabric_delivered = self.fabric.delivered_total();
        self.stats.fabric_dropped = self.fabric.dropped_total();
        self.tape.note(
            now,
            &format!(
                "end ok={} invalid={} busy={} failed={} elections={} accepts={}",
                self.stats.ok,
                self.stats.invalid,
                self.stats.busy,
                self.stats.failed,
                self.stats.elections,
                self.stats.config_accepts
            ),
        );
        let spans = self.recorder.as_ref().map(|rec| render_tree(&rec.spans()));
        RunOutcome {
            hash: self.tape.hash,
            violations: self.violations,
            stats: self.stats,
            transcript: self.tape.lines,
            spans,
            backends,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioKind;

    #[test]
    fn same_plan_same_transcript_hash() {
        for kind in ScenarioKind::ALL {
            let plan = ScenarioPlan::generate(kind, 11);
            let opts = WorldOptions::default();
            let a = run_plan(&plan, &opts);
            let b = run_plan(&plan, &opts);
            assert_eq!(a.hash, b.hash, "{kind:?} must replay byte-identically");
            assert_eq!(a.violations, b.violations);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_plan(
            &ScenarioPlan::generate(ScenarioKind::BackendKill, 1),
            &WorldOptions::default(),
        );
        let b = run_plan(
            &ScenarioPlan::generate(ScenarioKind::BackendKill, 2),
            &WorldOptions::default(),
        );
        assert_ne!(a.hash, b.hash);
    }

    #[test]
    fn healthy_runs_serve_and_hold_invariants() {
        let mut served = 0;
        for seed in 0..8u64 {
            let plan = ScenarioPlan::generate(ScenarioKind::BackendKill, seed);
            let out = run_plan(&plan, &WorldOptions::default());
            assert!(out.violations.is_empty(), "seed {seed}: {:?}", out.violations);
            served += out.stats.ok;
        }
        assert!(served > 0, "the fleet must actually answer requests");
    }

    #[test]
    fn transcripts_are_collectable_and_ordered() {
        let plan = ScenarioPlan::generate(ScenarioKind::Mixed, 5);
        let out = run_plan(&plan, &WorldOptions { collect_transcript: true, ..Default::default() });
        let lines = out.transcript.expect("collected");
        assert!(!lines.is_empty());
        let times: Vec<u64> =
            lines.iter().map(|l| l.split(' ').next().unwrap().parse::<u64>().unwrap()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "virtual time is monotone");
    }

    #[test]
    fn coordinator_churn_reelects() {
        let mut elections = 0;
        for seed in 0..6u64 {
            let plan = ScenarioPlan::generate(ScenarioKind::CoordinatorChurn, seed);
            let out = run_plan(&plan, &WorldOptions::default());
            assert!(out.violations.is_empty(), "seed {seed}: {:?}", out.violations);
            elections += out.stats.elections;
        }
        assert!(elections > 0, "killing the coordinator must force elections");
    }

    #[test]
    fn algo_mix_serves_every_engine_through_the_stack() {
        let mut ok = 0;
        let mut invalid = 0;
        for seed in 0..6u64 {
            let plan = ScenarioPlan::generate(ScenarioKind::AlgoMix, seed);
            let out = run_plan(&plan, &WorldOptions::default());
            assert!(out.violations.is_empty(), "seed {seed}: {:?}", out.violations);
            ok += out.stats.ok;
            invalid += out.stats.invalid;
        }
        assert!(ok > 0, "diverse algorithms must still produce 200s");
        assert!(
            invalid > 0,
            "uniform algo draws on homonym rings must exercise the 422 path \
             (distinct-label engines rejecting pool rings)"
        );
    }

    #[test]
    fn reported_counters_are_the_routers_own_bookkeeping() {
        let plans = std::iter::once(ScenarioPlan::generate(ScenarioKind::Mixed, 7))
            .chain((1..=4).map(|seed| ScenarioPlan::generate(ScenarioKind::BackendKill, seed)));
        let mut seen = RunStats::default();
        for plan in plans {
            let opts = WorldOptions { collect_transcript: true, ..Default::default() };
            let out = run_plan(&plan, &opts);
            let what = format!("{} seed {}", plan.kind.as_str(), plan.seed);
            assert!(out.violations.is_empty(), "{what}: {:?}", out.violations);
            let sum = |f: fn(&BackendSummary) -> u64| out.backends.iter().map(f).sum::<u64>();
            assert_eq!(out.stats.hedges, sum(|b| b.hedges), "{what}");
            assert_eq!(out.stats.failovers, sum(|b| b.failovers), "{what}");
            assert_eq!(out.stats.errors, sum(|b| b.errors), "{what}");
            // The world launched exactly what the machine booked.
            let lines = out.transcript.expect("collected");
            let launched = |kind: &str| {
                let tail = format!("kind={kind}");
                lines.iter().filter(|l| l.ends_with(&tail)).count() as u64
            };
            assert_eq!(launched("hedge"), out.stats.hedges, "{what}");
            let attempts = launched("primary") + launched("failover") + launched("hedge");
            assert_eq!(attempts, sum(|b| b.requests), "{what}");
            assert!(out.stats.errors >= out.stats.timeouts, "{what}: every timeout is an error");
            seen.hedges += out.stats.hedges;
            seen.failovers += out.stats.failovers;
            seen.errors += out.stats.errors;
        }
        assert!(seen.hedges > 0 && seen.failovers > 0 && seen.errors > 0, "{seen:?}");
    }

    #[test]
    fn the_planted_regression_is_catchable() {
        let mut caught = 0;
        for seed in 0..120u64 {
            let plan = ScenarioPlan::generate(ScenarioKind::BackendKill, seed);
            let out =
                run_plan(&plan, &WorldOptions { planted_regression: true, ..Default::default() });
            if out.violations.iter().any(|v| v.contains("I2 unattributed")) {
                caught += 1;
            }
        }
        assert!(caught > 0, "some seed must surface the planted regression");
    }
}
