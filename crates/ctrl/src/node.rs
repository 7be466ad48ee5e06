//! The control-plane node: one per process, next to the data-plane
//! daemon it represents.
//!
//! Each node owns a small HTTP endpoint (the same hand-rolled HTTP/1.1
//! the data plane uses) and a manager thread that ticks every
//! heartbeat interval. The protocol, end to end:
//!
//! 1. **Join**: a starting node POSTs its own record to a seed's
//!    `/ctrl/join` and merges the returned view.
//! 2. **Gossip**: every tick, each node exchanges its full view with
//!    every live peer (`POST /ctrl/gossip` is a two-way anti-entropy
//!    merge). The view is a CRDT ([`crate::member::View`]), so any
//!    exchange order converges.
//! 3. **Failure detection**: a peer that has not answered gossip for
//!    `failure_timeout` is declared dead — a sticky, incarnation-fenced
//!    mark that gossip then spreads. A node that sees *itself* declared
//!    dead (it was partitioned, not crashed) rejoins by bumping its
//!    incarnation.
//! 4. **Election**: when the live backend set disagrees with the
//!    active config (first boot, join, crash, coordinator death), the
//!    lowest-id live backend initiates: it mints a fresh epoch from the
//!    [`hre_runtime::EpochClock`], sends the deterministic
//!    [`RingPlan`] to every participant (`/ctrl/prepare` — each binds
//!    an election listener and answers its address), then
//!    `/ctrl/commit` starts every member's real `Ak` process over
//!    TCP ([`crate::election::run_round`]).
//! 5. **Config push**: the elected coordinator owns the backend list.
//!    It pushes `{epoch, coordinator, backends}` to every member
//!    (`/ctrl/config`) and keeps re-pushing each `push_interval`, so a
//!    member that missed the original push heals. Pushes are fenced:
//!    an epoch below the accepted one is answered `409` — a deposed
//!    coordinator can shout, but nobody listens.
//!
//! Membership changes and config decisions land in the flight recorder
//! as [`Stage::Membership`] and [`Stage::Reconfigure`] spans, so
//! `GET /trace/recent` on the attached daemon shows re-elections as
//! first-class traced events.

use crate::election::run_round;
use crate::member::{MemberId, MemberInfo, RingPlan, Role, Status, View};
use hre_runtime::trace::{FlightRecorder, SpanAttrs, SpanId, Stage};
use hre_runtime::{ClockHandle, EpochClock, DEFAULT_TRACE_CAP};
use hre_svc::http::{HttpConn, ReadOutcome, Request, Response};
use hre_svc::json::{self, Json};
use hre_svc::{error_json, Client, StatusProvider};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// Callback invoked whenever a config push is accepted (routers hook
/// [`hre-cluster`'s `update_backends`] here).
pub type ConfigCallback = Arc<dyn Fn(&ClusterTopology) + Send + Sync>;

/// Callback invoked when a live backend is declared dead, with its
/// serve address (routers hook breaker tripping here, so traffic stops
/// flowing into the hole before the config catches up).
pub type DeathCallback = Arc<dyn Fn(&str) + Send + Sync>;

/// The coordinator's product: the epoch-stamped backend list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterTopology {
    /// The election epoch that produced this config.
    pub epoch: u64,
    /// The elected coordinator.
    pub coordinator: MemberId,
    /// Backend serve addresses, in ring-plan order.
    pub backends: Vec<String>,
}

impl ClusterTopology {
    fn to_json(&self) -> Json {
        json::obj(vec![
            ("epoch", Json::Num(self.epoch as i128)),
            ("coordinator", Json::Num(self.coordinator as i128)),
            ("backends", Json::Arr(self.backends.iter().cloned().map(Json::Str).collect())),
        ])
    }

    fn from_json(v: &Json) -> Result<ClusterTopology, String> {
        Ok(ClusterTopology {
            epoch: v.get("epoch").and_then(Json::as_u64).ok_or("config missing epoch")?,
            coordinator: v
                .get("coordinator")
                .and_then(Json::as_u64)
                .ok_or("config missing coordinator")?,
            backends: v
                .get("backends")
                .and_then(Json::as_arr)
                .ok_or("config missing backends")?
                .iter()
                .map(|b| b.as_str().map(String::from).ok_or("backends must be strings".into()))
                .collect::<Result<_, String>>()?,
        })
    }
}

/// Configuration of one control-plane node.
#[derive(Clone)]
pub struct CtrlConfig {
    /// Stable node id; `None` derives one from `serve_addr` so the same
    /// logical node keeps its identity across restarts.
    pub node_id: Option<u64>,
    /// Backend (electable, in the ring) or router (observer).
    pub role: Role,
    /// Control-plane listen address; port 0 picks an ephemeral port.
    pub ctrl_addr: String,
    /// The data-plane address this member advertises.
    pub serve_addr: String,
    /// Control-plane addresses of existing members to join through
    /// (empty bootstraps a new cluster).
    pub seeds: Vec<String>,
    /// Gossip/heartbeat tick interval.
    pub heartbeat_interval: Duration,
    /// Silence from a peer past this declares it dead.
    pub failure_timeout: Duration,
    /// Idle timeout for the `Ak` driver during a round.
    pub election_idle: Duration,
    /// How often the coordinator re-pushes the active config.
    pub push_interval: Duration,
    /// Flight recorder to record membership/reconfigure spans into
    /// (share the daemon's so `GET /trace/recent` shows re-elections);
    /// `None` creates a private one.
    pub recorder: Option<Arc<FlightRecorder>>,
    /// Called on every accepted config push.
    pub on_config: Option<ConfigCallback>,
    /// Called when a live backend is declared dead.
    pub on_death: Option<DeathCallback>,
    /// Time source for the control loop (heartbeat pacing, failure
    /// detection, push/election cooldowns). Defaults to the wall
    /// clock; the simulation harness injects a virtual clock.
    pub clock: ClockHandle,
}

impl Default for CtrlConfig {
    fn default() -> Self {
        CtrlConfig {
            node_id: None,
            role: Role::Backend,
            ctrl_addr: "127.0.0.1:0".into(),
            serve_addr: String::new(),
            seeds: Vec::new(),
            heartbeat_interval: Duration::from_millis(75),
            failure_timeout: Duration::from_millis(450),
            election_idle: Duration::from_secs(3),
            push_interval: Duration::from_millis(400),
            recorder: None,
            on_config: None,
            on_death: None,
            clock: ClockHandle::default(),
        }
    }
}

impl std::fmt::Debug for CtrlConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtrlConfig")
            .field("node_id", &self.node_id)
            .field("role", &self.role)
            .field("ctrl_addr", &self.ctrl_addr)
            .field("serve_addr", &self.serve_addr)
            .field("seeds", &self.seeds)
            .finish_non_exhaustive()
    }
}

/// Timeout for one control-plane HTTP exchange (gossip, prepare,
/// commit, config push). Deliberately short: the control plane prefers
/// declaring a peer slow over stalling its own tick.
const CTRL_TIMEOUT: Duration = Duration::from_millis(500);

/// How often blocked loops wake up to check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// A prepared-but-not-committed election round on this member.
struct Pending {
    epoch: u64,
    plan: RingPlan,
    listener: TcpListener,
}

struct Inner {
    cfg: CtrlConfig,
    me: MemberId,
    /// This node's bound control address (what peers dial).
    ctrl_addr: SocketAddr,
    view: Mutex<View>,
    epoch: EpochClock,
    config: Mutex<Option<ClusterTopology>>,
    pending: Mutex<Option<Pending>>,
    round_active: AtomicBool,
    last_seen: Mutex<BTreeMap<MemberId, Instant>>,
    recorder: Arc<FlightRecorder>,
    shutdown: AtomicBool,
    rounds: Mutex<Vec<JoinHandle<()>>>,
}

/// A running control-plane node. Dropping the handle leaks the threads;
/// call [`CtrlHandle::shutdown`] to drain.
pub struct CtrlHandle {
    /// The control-plane address actually bound (resolves port 0).
    pub addr: SocketAddr,
    inner: Arc<Inner>,
    acceptor: JoinHandle<()>,
    manager: JoinHandle<()>,
}

/// Derives a stable node id from the advertised serve address (FNV-1a
/// then a SplitMix finalizer), so restarts keep the identity.
pub fn derive_node_id(serve_addr: &str) -> MemberId {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in serve_addr.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 31)
}

/// Binds the control endpoint, joins through the seeds, and starts the
/// gossip/election manager.
pub fn start(cfg: CtrlConfig) -> std::io::Result<CtrlHandle> {
    let listener = TcpListener::bind(&cfg.ctrl_addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let me = cfg.node_id.unwrap_or_else(|| derive_node_id(&cfg.serve_addr));
    // Wall-clock incarnation: strictly greater than any incarnation a
    // previous run of this node can have gossiped (assuming the clock
    // does not run backwards across a restart), so a rejoin supersedes
    // stale records without coordination.
    let incarnation = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(1)
        .max(1);

    let mut view = View::new();
    view.observe(MemberInfo {
        id: me,
        role: cfg.role,
        ctrl_addr: addr.to_string(),
        serve_addr: cfg.serve_addr.clone(),
        incarnation,
        status: Status::Alive,
    });

    let recorder = cfg.recorder.clone().unwrap_or_else(|| FlightRecorder::new(DEFAULT_TRACE_CAP));
    let inner = Arc::new(Inner {
        me,
        ctrl_addr: addr,
        view: Mutex::new(view),
        epoch: EpochClock::new(),
        config: Mutex::new(None),
        pending: Mutex::new(None),
        round_active: AtomicBool::new(false),
        last_seen: Mutex::new(BTreeMap::new()),
        recorder,
        shutdown: AtomicBool::new(false),
        rounds: Mutex::new(Vec::new()),
        cfg,
    });

    // Join through the seeds before the manager starts, so the first
    // tick already gossips with a populated view. Seed failures are
    // non-fatal: the seed may simply not be up yet, and later gossip
    // (seeds also learn about us from *our* records spreading) heals.
    for seed in inner.cfg.seeds.clone() {
        let _ = join_via_seed(&inner, &seed);
    }

    let acceptor = {
        let inner = Arc::clone(&inner);
        std::thread::spawn(move || {
            hre_runtime::serve_connections(&listener, &inner.shutdown, |stream| {
                connection_loop(stream, &inner)
            });
        })
    };
    let manager = {
        let inner = Arc::clone(&inner);
        std::thread::spawn(move || manager_loop(&inner))
    };
    Ok(CtrlHandle { addr, inner, acceptor, manager })
}

impl CtrlHandle {
    /// This node's member id.
    pub fn member_id(&self) -> MemberId {
        self.inner.me
    }

    /// The highest epoch this node has observed.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.current()
    }

    /// The coordinator per the active config, if one has been accepted.
    pub fn coordinator(&self) -> Option<MemberId> {
        self.inner.config.lock().unwrap().as_ref().map(|c| c.coordinator)
    }

    /// Whether this node is the active coordinator.
    pub fn is_coordinator(&self) -> bool {
        self.coordinator() == Some(self.inner.me)
    }

    /// The active config, if one has been accepted.
    pub fn config(&self) -> Option<ClusterTopology> {
        self.inner.config.lock().unwrap().clone()
    }

    /// A snapshot of the membership view.
    pub fn view(&self) -> View {
        self.inner.view.lock().unwrap().clone()
    }

    /// The `/ctrl` status document (same JSON the control endpoint and
    /// the attached daemon's `GET /ctrl` serve).
    pub fn status_json(&self) -> String {
        status_doc(&self.inner).to_string()
    }

    /// A provider for [`hre_svc::SvcConfig::ctrl_status`], so the
    /// data-plane daemon's `GET /ctrl` answers with this node's status.
    pub fn status_provider(&self) -> StatusProvider {
        let inner = Arc::clone(&self.inner);
        StatusProvider::new(move || status_doc(&inner).to_string())
    }

    /// Stops gossiping, joins the manager, the acceptor, and any
    /// election round still in flight.
    pub fn shutdown(self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        let _ = self.manager.join();
        let _ = self.acceptor.join();
        for h in self.inner.rounds.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

/// The `/ctrl` status document.
fn status_doc(inner: &Inner) -> Json {
    let view = inner.view.lock().unwrap().clone();
    let config = inner.config.lock().unwrap().clone();
    let members: Vec<Json> = view.members().map(MemberInfo::to_json).collect();
    let plan = view.ring_plan();
    let ring =
        plan.as_ref().map(|p| json::nums(p.order.iter().copied())).unwrap_or(Json::Arr(Vec::new()));
    let ring_labels = plan
        .as_ref()
        .map(|p| json::nums(p.labels.iter().copied()))
        .unwrap_or(Json::Arr(Vec::new()));
    json::obj(vec![
        ("id", Json::Num(inner.me as i128)),
        ("role", Json::Str(inner.cfg.role.as_str().into())),
        ("epoch", Json::Num(inner.epoch.current() as i128)),
        (
            "coordinator",
            config.as_ref().map(|c| Json::Num(c.coordinator as i128)).unwrap_or(Json::Null),
        ),
        ("is_coordinator", Json::Bool(config.as_ref().is_some_and(|c| c.coordinator == inner.me))),
        ("config_epoch", config.as_ref().map(|c| Json::Num(c.epoch as i128)).unwrap_or(Json::Null)),
        (
            "backends",
            config
                .as_ref()
                .map(|c| Json::Arr(c.backends.iter().cloned().map(Json::Str).collect()))
                .unwrap_or(Json::Arr(Vec::new())),
        ),
        ("ring", ring),
        ("ring_labels", ring_labels),
        ("members", Json::Arr(members)),
    ])
}

/// This node's own record, as currently held in the view.
fn my_record(inner: &Inner) -> MemberInfo {
    inner.view.lock().unwrap().member(inner.me).expect("own record always present").clone()
}

/// POSTs our record to a seed and merges the view it answers with.
fn join_via_seed(inner: &Inner, seed: &str) -> Result<(), String> {
    let body = my_record(inner).to_json().to_string();
    let resp = Client::connect(seed, CTRL_TIMEOUT)
        .and_then(|mut c| c.post_json("/ctrl/join", &body))
        .map_err(|e| format!("seed {seed}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("seed {seed} answered {}", resp.status));
    }
    let doc = Json::parse(&resp.body_text())?;
    absorb_view_doc(inner, &doc)?;
    Ok(())
}

/// Merges an `{epoch, view}` document into our state; records a
/// membership span if the ring-relevant membership changed.
fn absorb_view_doc(inner: &Inner, doc: &Json) -> Result<bool, String> {
    if let Some(e) = doc.get("epoch").and_then(Json::as_u64) {
        inner.epoch.observe(e);
    }
    let remote = View::from_json(doc.get("view").ok_or("missing view")?)?;
    let t0 = inner.cfg.clock.now();
    let (changed, live) = {
        let mut view = inner.view.lock().unwrap();
        let before = view.ring_plan();
        let changed = view.merge(&remote);
        let after = view.ring_plan();
        ensure_first_seen(inner, &view);
        (changed && before != after, after.map(|p| p.len()).unwrap_or(0))
    };
    if changed {
        record_membership(inner, t0, live as u64);
    }
    Ok(changed)
}

/// Seeds `last_seen` for members we just learned about, so a brand-new
/// peer gets a full `failure_timeout` of grace before being declared
/// dead.
fn ensure_first_seen(inner: &Inner, view: &View) {
    let mut seen = inner.last_seen.lock().unwrap();
    let now = inner.cfg.clock.now();
    for m in view.live() {
        seen.entry(m.id).or_insert(now);
    }
}

/// Records a [`Stage::Membership`] root span (`a` = epoch, `b` = live
/// ring size).
fn record_membership(inner: &Inner, t0: Instant, ring: u64) {
    let rec = &inner.recorder;
    let trace = rec.mint_trace();
    let root = rec.next_span_id();
    rec.record_span_with_id(
        root,
        trace,
        SpanId::NONE,
        Stage::Membership,
        t0,
        inner.cfg.clock.now(),
        SpanAttrs { a: inner.epoch.current(), b: ring, root: true, ..Default::default() },
    );
}

/// Accepts or fences a config. The accept rule is `epoch >= accepted`:
/// equality re-admits the live coordinator's periodic refresh, and
/// anything below is a deposed coordinator and is refused. Every
/// decision is a [`Stage::Reconfigure`] span (`a` = offered epoch,
/// `b` = 1 iff accepted).
fn accept_config(inner: &Inner, topo: ClusterTopology) -> Result<(), String> {
    let t0 = inner.cfg.clock.now();
    let result = {
        let mut config = inner.config.lock().unwrap();
        match config.as_ref() {
            Some(cur) if topo.epoch < cur.epoch => Err(format!(
                "stale config push: epoch {} is behind the accepted epoch {}",
                topo.epoch, cur.epoch
            )),
            _ => {
                inner.epoch.observe(topo.epoch);
                let changed = config.as_ref() != Some(&topo);
                *config = Some(topo.clone());
                Ok(changed)
            }
        }
    };
    let rec = &inner.recorder;
    let trace = rec.mint_trace();
    let root = rec.next_span_id();
    rec.record_span_with_id(
        root,
        trace,
        SpanId::NONE,
        Stage::Reconfigure,
        t0,
        inner.cfg.clock.now(),
        SpanAttrs { a: topo.epoch, b: result.is_ok() as u64, err: result.is_err(), root: true },
    );
    match result {
        Ok(changed) => {
            if changed {
                if let Some(cb) = &inner.cfg.on_config {
                    cb(&topo);
                }
            }
            Ok(())
        }
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------
// HTTP surface
// ---------------------------------------------------------------------

fn connection_loop(stream: TcpStream, inner: &Arc<Inner>) {
    let Ok(mut conn) = HttpConn::new(stream, POLL) else { return };
    loop {
        match conn.read_request(Instant::now() + Duration::from_secs(2)) {
            ReadOutcome::IdlePoll => {
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
            }
            ReadOutcome::Closed => return,
            ReadOutcome::Malformed(why) => {
                let _ = Response::json(400, error_json(&why)).write_to(conn.stream(), true);
                return;
            }
            ReadOutcome::TooLarge { .. } => {
                let _ = Response::json(413, error_json("control message too large"))
                    .write_to(conn.stream(), true);
                return;
            }
            ReadOutcome::Request(req) => {
                let close = req.wants_close() || inner.shutdown.load(Ordering::Relaxed);
                let resp = route(&req, inner);
                if resp.write_to(conn.stream(), close).is_err() || close {
                    return;
                }
            }
        }
    }
}

fn route(req: &Request, inner: &Arc<Inner>) -> Response {
    let body = String::from_utf8_lossy(&req.body);
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/ctrl") => Response::json(200, status_doc(inner).to_string()),
        ("POST", "/ctrl/join") => handle_join(&body, inner),
        ("POST", "/ctrl/gossip") => handle_gossip(&body, inner),
        ("POST", "/ctrl/prepare") => handle_prepare(&body, inner),
        ("POST", "/ctrl/commit") => handle_commit(&body, inner),
        ("POST", "/ctrl/config") => handle_config(&body, inner),
        ("POST", _) | ("GET", _) => Response::json(404, error_json("no such endpoint")),
        _ => Response::json(405, error_json("method not allowed")),
    }
}

/// The `{epoch, view}` document gossip and join answer with.
fn view_doc(inner: &Inner) -> Json {
    json::obj(vec![
        ("epoch", Json::Num(inner.epoch.current() as i128)),
        ("view", inner.view.lock().unwrap().to_json()),
    ])
}

fn handle_join(body: &str, inner: &Arc<Inner>) -> Response {
    let parse = Json::parse(body).and_then(|v| MemberInfo::from_json(&v));
    match parse {
        Ok(info) => {
            let t0 = inner.cfg.clock.now();
            let (changed, live) = {
                let mut view = inner.view.lock().unwrap();
                let before = view.ring_plan();
                let changed = view.observe(info);
                let after = view.ring_plan();
                ensure_first_seen(inner, &view);
                (changed && before != after, after.map(|p| p.len()).unwrap_or(0))
            };
            if changed {
                record_membership(inner, t0, live as u64);
            }
            Response::json(200, view_doc(inner).to_string())
        }
        Err(why) => Response::json(400, error_json(&why)),
    }
}

fn handle_gossip(body: &str, inner: &Arc<Inner>) -> Response {
    let outcome = Json::parse(body).and_then(|doc| {
        if let Some(from) = doc.get("from").and_then(Json::as_u64) {
            inner.last_seen.lock().unwrap().insert(from, inner.cfg.clock.now());
        }
        absorb_view_doc(inner, &doc)
    });
    match outcome {
        Ok(_) => Response::json(200, view_doc(inner).to_string()),
        Err(why) => Response::json(400, error_json(&why)),
    }
}

/// Prepare: fence the epoch, bind this member's election listener, and
/// answer its address. A later prepare at a higher epoch supersedes a
/// pending one (its listener is simply dropped).
fn handle_prepare(body: &str, inner: &Arc<Inner>) -> Response {
    let parsed = Json::parse(body).and_then(|doc| {
        let epoch = doc.get("epoch").and_then(Json::as_u64).ok_or("prepare missing epoch")?;
        let plan = RingPlan::from_json(doc.get("plan").ok_or("prepare missing plan")?)?;
        Ok((epoch, plan))
    });
    let (epoch, plan) = match parsed {
        Ok(v) => v,
        Err(why) => return Response::json(400, error_json(&why)),
    };
    match prepare_local(inner, epoch, plan) {
        Ok(addr) => Response::json(
            200,
            json::obj(vec![("election_addr", Json::Str(addr.to_string()))]).to_string(),
        ),
        Err(why) => Response::json(409, error_json(&why)),
    }
}

fn prepare_local(inner: &Arc<Inner>, epoch: u64, plan: RingPlan) -> Result<SocketAddr, String> {
    if plan.position(inner.me).is_none() {
        return Err("this member is not in the proposed ring".into());
    }
    if let Some(cfg) = inner.config.lock().unwrap().as_ref() {
        if epoch <= cfg.epoch {
            return Err(format!(
                "stale prepare: epoch {epoch} does not exceed the accepted epoch {}",
                cfg.epoch
            ));
        }
    }
    let mut pending = inner.pending.lock().unwrap();
    if let Some(p) = pending.as_ref() {
        if p.epoch >= epoch {
            return Err(format!("round at epoch {} already prepared", p.epoch));
        }
    }
    // Bind on the same interface the control endpoint uses.
    let listener = TcpListener::bind((inner.ctrl_addr.ip(), 0))
        .map_err(|e| format!("cannot bind election listener: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    inner.epoch.observe(epoch);
    *pending = Some(Pending { epoch, plan, listener });
    Ok(addr)
}

/// Commit: start the prepared round. The body carries every member's
/// election address in plan order; each member dials its successor.
fn handle_commit(body: &str, inner: &Arc<Inner>) -> Response {
    let parsed = Json::parse(body).and_then(|doc| {
        let epoch = doc.get("epoch").and_then(Json::as_u64).ok_or("commit missing epoch")?;
        let addrs: Vec<String> = doc
            .get("addrs")
            .and_then(Json::as_arr)
            .ok_or("commit missing addrs")?
            .iter()
            .map(|a| a.as_str().map(String::from).ok_or("addrs must be strings".into()))
            .collect::<Result<_, String>>()?;
        Ok((epoch, addrs))
    });
    let (epoch, addrs) = match parsed {
        Ok(v) => v,
        Err(why) => return Response::json(400, error_json(&why)),
    };
    match commit_local(inner, epoch, &addrs) {
        Ok(()) => Response::json(200, json::obj(vec![("ok", Json::Bool(true))]).to_string()),
        Err(why) => Response::json(409, error_json(&why)),
    }
}

fn commit_local(inner: &Arc<Inner>, epoch: u64, addrs: &[String]) -> Result<(), String> {
    let pending = {
        let mut slot = inner.pending.lock().unwrap();
        match slot.as_ref() {
            Some(p) if p.epoch == epoch => slot.take().unwrap(),
            Some(p) => return Err(format!("prepared epoch {} ≠ committed epoch {epoch}", p.epoch)),
            None => return Err("no prepared round".into()),
        }
    };
    if addrs.len() != pending.plan.len() {
        return Err("commit addrs must match the plan length".into());
    }
    let pos = pending.plan.position(inner.me).ok_or("not in the committed ring")?;
    let successor: SocketAddr = addrs[(pos + 1) % addrs.len()]
        .parse()
        .map_err(|e| format!("bad successor address: {e}"))?;
    let me = inner.me;
    let idle = inner.cfg.election_idle;
    let inner2 = Arc::clone(inner);
    inner.round_active.store(true, Ordering::SeqCst);
    let handle = std::thread::spawn(move || {
        let t0 = inner2.cfg.clock.now();
        let outcome = run_round(me, &pending.plan, Some(pending.listener), Some(successor), idle);
        inner2.round_active.store(false, Ordering::SeqCst);
        match outcome {
            Ok(out) => {
                record_membership(&inner2, t0, pending.plan.len() as u64);
                if out.is_coordinator {
                    let topo = ClusterTopology {
                        epoch,
                        coordinator: me,
                        backends: backends_of(&inner2, &pending.plan),
                    };
                    push_config(&inner2, &topo);
                }
            }
            Err(why) => {
                eprintln!("ctrl[{me}]: election round at epoch {epoch} failed: {why}");
            }
        }
    });
    inner.rounds.lock().unwrap().push(handle);
    Ok(())
}

/// The serve addresses of the plan's members, in plan order.
fn backends_of(inner: &Inner, plan: &RingPlan) -> Vec<String> {
    let view = inner.view.lock().unwrap();
    plan.order.iter().filter_map(|id| view.member(*id).map(|m| m.serve_addr.clone())).collect()
}

/// Applies a config locally and pushes it to every other known-live
/// member (routers included — they are exactly who need it most).
fn push_config(inner: &Arc<Inner>, topo: &ClusterTopology) {
    if let Err(why) = accept_config(inner, topo.clone()) {
        eprintln!("ctrl[{}]: own config rejected locally: {why}", inner.me);
        return;
    }
    let peers: Vec<(MemberId, String)> = {
        let view = inner.view.lock().unwrap();
        view.live().filter(|m| m.id != inner.me).map(|m| (m.id, m.ctrl_addr.clone())).collect()
    };
    let body = topo.to_json().to_string();
    for (_id, addr) in peers {
        let _ = Client::connect(&addr, CTRL_TIMEOUT)
            .and_then(|mut c| c.post_json("/ctrl/config", &body));
    }
}

fn handle_config(body: &str, inner: &Arc<Inner>) -> Response {
    let parsed = Json::parse(body).and_then(|v| ClusterTopology::from_json(&v));
    match parsed {
        Ok(topo) => {
            let epoch = topo.epoch;
            match accept_config(inner, topo) {
                Ok(()) => Response::json(
                    200,
                    json::obj(vec![("ok", Json::Bool(true)), ("epoch", Json::Num(epoch as i128))])
                        .to_string(),
                ),
                Err(why) => Response::json(409, error_json(&why)),
            }
        }
        Err(why) => Response::json(400, error_json(&why)),
    }
}

// ---------------------------------------------------------------------
// The manager: heartbeats, failure detection, election triggering
// ---------------------------------------------------------------------

fn manager_loop(inner: &Arc<Inner>) {
    let mut last_push = inner.cfg.clock.now();
    let mut last_attempt: Option<Instant> = None;
    while !inner.shutdown.load(Ordering::Relaxed) {
        gossip_tick(inner);
        detect_failures(inner);
        resurrect_if_slandered(inner);
        coordinator_tick(inner, &mut last_push);
        election_tick(inner, &mut last_attempt);

        let mut slept = Duration::ZERO;
        while slept < inner.cfg.heartbeat_interval {
            if inner.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let step = POLL.min(inner.cfg.heartbeat_interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

/// Exchanges views with every live peer. Success refreshes the peer's
/// `last_seen`; the merged replies spread membership both ways.
fn gossip_tick(inner: &Arc<Inner>) {
    let peers: Vec<(MemberId, String)> = {
        let view = inner.view.lock().unwrap();
        view.live().filter(|m| m.id != inner.me).map(|m| (m.id, m.ctrl_addr.clone())).collect()
    };
    if peers.is_empty() {
        return;
    }
    let body = json::obj(vec![
        ("from", Json::Num(inner.me as i128)),
        ("epoch", Json::Num(inner.epoch.current() as i128)),
        ("view", inner.view.lock().unwrap().to_json()),
    ])
    .to_string();
    for (id, addr) in peers {
        let resp = Client::connect(&addr, CTRL_TIMEOUT)
            .and_then(|mut c| c.post_json("/ctrl/gossip", &body));
        if let Ok(resp) = resp {
            if resp.status == 200 {
                inner.last_seen.lock().unwrap().insert(id, inner.cfg.clock.now());
                if let Ok(doc) = Json::parse(&resp.body_text()) {
                    let _ = absorb_view_doc(inner, &doc);
                }
            }
        }
    }
}

/// Declares peers silent past `failure_timeout` dead, fires the death
/// callback for backends, and records the membership change.
fn detect_failures(inner: &Arc<Inner>) {
    let now = inner.cfg.clock.now();
    let stale: Vec<MemberId> = {
        let seen = inner.last_seen.lock().unwrap();
        let view = inner.view.lock().unwrap();
        view.live()
            .filter(|m| m.id != inner.me)
            .filter(|m| {
                seen.get(&m.id)
                    .map(|t| now.duration_since(*t) > inner.cfg.failure_timeout)
                    .unwrap_or(false)
            })
            .map(|m| m.id)
            .collect()
    };
    for id in stale {
        let t0 = inner.cfg.clock.now();
        let (declared, dead_serve, live) = {
            let mut view = inner.view.lock().unwrap();
            let serve = view.member(id).map(|m| (m.role, m.serve_addr.clone()));
            let declared = view.declare_dead(id);
            let live = view.ring_plan().map(|p| p.len()).unwrap_or(0);
            (declared, serve, live)
        };
        if declared {
            record_membership(inner, t0, live as u64);
            if let Some((Role::Backend, serve_addr)) = dead_serve {
                if let Some(cb) = &inner.cfg.on_death {
                    cb(&serve_addr);
                }
            }
        }
    }
}

/// If gossip says *we* are dead (a partition healed), rejoin by bumping
/// our incarnation — the CRDT's only path back to `Alive`.
fn resurrect_if_slandered(inner: &Arc<Inner>) {
    let mut view = inner.view.lock().unwrap();
    let me = view.member(inner.me).expect("own record always present").clone();
    if me.status == Status::Dead {
        view.observe(MemberInfo { incarnation: me.incarnation + 1, status: Status::Alive, ..me });
    }
}

/// The coordinator's periodic config refresh: heal members that missed
/// the push, and keep asserting the epoch so any deposed coordinator
/// that resurfaces is immediately fenced.
fn coordinator_tick(inner: &Arc<Inner>, last_push: &mut Instant) {
    let topo = {
        let config = inner.config.lock().unwrap();
        match config.as_ref() {
            Some(c) if c.coordinator == inner.me => c.clone(),
            _ => return,
        }
    };
    let now = inner.cfg.clock.now();
    if now.saturating_duration_since(*last_push) < inner.cfg.push_interval {
        return;
    }
    *last_push = now;
    push_config(inner, &topo);
}

/// Does the live backend set agree with the active config? If not, and
/// this node is the designated initiator (lowest-id live backend), run
/// an election.
fn election_tick(inner: &Arc<Inner>, last_attempt: &mut Option<Instant>) {
    if inner.cfg.role != Role::Backend || inner.round_active.load(Ordering::Relaxed) {
        return;
    }
    let (plan, want) = {
        let view = inner.view.lock().unwrap();
        let Some(plan) = view.ring_plan() else { return };
        if plan.order.first() != Some(&inner.me) {
            return; // not the initiator
        }
        let want = backends_of_view(&view, &plan);
        (plan, want)
    };
    let settled = {
        let config = inner.config.lock().unwrap();
        config.as_ref().is_some_and(|c| c.backends == want && plan.order.contains(&c.coordinator))
    };
    if settled {
        return;
    }
    // Cooldown: a failed round times out after `election_idle`; starting
    // a new one sooner would race our own members' pending listeners.
    let now = inner.cfg.clock.now();
    if let Some(t) = last_attempt {
        if now.saturating_duration_since(*t) < inner.cfg.election_idle {
            return;
        }
    }
    *last_attempt = Some(now);
    initiate_election(inner, plan);
}

fn backends_of_view(view: &View, plan: &RingPlan) -> Vec<String> {
    plan.order.iter().filter_map(|id| view.member(*id).map(|m| m.serve_addr.clone())).collect()
}

/// The initiator's two-phase kick-off: prepare everyone (collect
/// election addresses), then commit everyone (start the `Ak` round).
fn initiate_election(inner: &Arc<Inner>, plan: RingPlan) {
    let epoch = inner.epoch.next();
    if plan.len() == 1 {
        // Alone: coordinator by definition; no sockets, no messages —
        // the paper's n=1 ring is trivially asymmetric.
        let topo =
            ClusterTopology { epoch, coordinator: inner.me, backends: backends_of(inner, &plan) };
        push_config(inner, &topo);
        return;
    }
    let ctrl_addrs: Vec<Option<String>> = {
        let view = inner.view.lock().unwrap();
        plan.order.iter().map(|id| view.member(*id).map(|m| m.ctrl_addr.clone())).collect()
    };
    let prepare_body =
        json::obj(vec![("epoch", Json::Num(epoch as i128)), ("plan", plan.to_json())]).to_string();

    let mut election_addrs: Vec<String> = Vec::with_capacity(plan.len());
    for (i, id) in plan.order.iter().enumerate() {
        let addr = if *id == inner.me {
            match prepare_local(inner, epoch, plan.clone()) {
                Ok(a) => a.to_string(),
                Err(why) => {
                    eprintln!("ctrl[{}]: own prepare at epoch {epoch} failed: {why}", inner.me);
                    return;
                }
            }
        } else {
            let Some(ctrl) = &ctrl_addrs[i] else { return };
            let resp = Client::connect(ctrl, CTRL_TIMEOUT)
                .and_then(|mut c| c.post_json("/ctrl/prepare", &prepare_body));
            match resp {
                Ok(r) if r.status == 200 => {
                    match Json::parse(&r.body_text()).ok().and_then(|d| {
                        d.get("election_addr").and_then(Json::as_str).map(String::from)
                    }) {
                        Some(a) => a,
                        None => return,
                    }
                }
                // A refusal or a dead peer aborts this attempt; failure
                // detection and the next tick take it from here.
                _ => return,
            }
        };
        election_addrs.push(addr);
    }

    let commit_body = json::obj(vec![
        ("epoch", Json::Num(epoch as i128)),
        ("addrs", Json::Arr(election_addrs.iter().cloned().map(Json::Str).collect())),
    ])
    .to_string();
    for (i, id) in plan.order.iter().enumerate() {
        if *id == inner.me {
            if let Err(why) = commit_local(inner, epoch, &election_addrs) {
                eprintln!("ctrl[{}]: own commit at epoch {epoch} failed: {why}", inner.me);
            }
        } else if let Some(ctrl) = &ctrl_addrs[i] {
            let _ = Client::connect(ctrl, CTRL_TIMEOUT)
                .and_then(|mut c| c.post_json("/ctrl/commit", &commit_body));
        }
    }
}
