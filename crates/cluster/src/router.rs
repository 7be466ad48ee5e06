//! The front-door router: one listener, N backends, rotation-affinity
//! routing, breaker-gated failover, and hedged retries.
//!
//! `POST /elect` is validated locally (garbage gets `400` and is never
//! forwarded), keyed by the canonical rotation of its labels, and handed
//! to a [`Forward`] machine over one topology snapshot, which decides
//! every launch, hedge, failover and the final answer; this module only
//! sends its attempts (one thread each, pooled keep-alive connections)
//! and relays the chosen response with an `x-backend` header. Hedging
//! is safe here in a way it is not for general RPC: elections are
//! deterministic and idempotent, so raced responses are byte-identical.
//!
//! The backend set is **dynamic**: everything per-backend
//! lives in an immutable [`Topology`] snapshot behind an
//! `RwLock<Arc<..>>`, and the control plane's elected coordinator swaps
//! it via [`RouterHandle::update_backends`]. Pushes are fenced by epoch
//! — a push below the current epoch is a deposed coordinator talking
//! and is refused. Each request grabs one snapshot up front, so a swap
//! mid-request cannot mix generations. With [`ClusterConfig::dynamic`]
//! set the router may start with no backends at all and answers `502`
//! until the first config push lands.
//!
//! A background prober hits every backend's `GET /healthz` each
//! `health_interval`; probe outcomes feed the same breakers as live
//! traffic, and open breakers pace their probes on the shared
//! capped-backoff schedule ([`hre_runtime::Backoff`]).

use crate::forward::{AttemptKind, Forward, Step, Verdict};
use crate::hash::shard_key;
use crate::metrics::ClusterMetrics;
use crate::topology::{BackendSlot, Topology};
use crossbeam::channel::{bounded, Receiver, Sender};
use hre_runtime::trace::{FlightRecorder, SpanAttrs, SpanId, Stage, TraceId};
use hre_runtime::{ClockHandle, DEFAULT_TRACE_CAP};
use hre_svc::http::{Request, Response, DEFAULT_MAX_BODY};
use hre_svc::json::{self, Json};
use hre_svc::{error_json, tracewire, Client, ClientResponse, ElectRequest};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Router configuration (defaults match `hre cluster-route`'s flags).
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend `host:port` addresses. Must be non-empty unless
    /// [`ClusterConfig::dynamic`] is set; duplicates and the router's
    /// own address are rejected at startup.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the consistent-hash ring.
    pub vnodes: usize,
    /// Connect/read/write timeout for one proxied attempt.
    pub timeout: Duration,
    /// Client-facing budget per request; `504` past it.
    pub deadline: Duration,
    /// Floor for the adaptive hedge threshold.
    pub hedge_min: Duration,
    /// Consecutive transport failures that trip a breaker open.
    pub failure_threshold: u32,
    /// First open-state probe delay (doubles up to `probe_cap`).
    pub probe_start: Duration,
    /// Probe-delay cap.
    pub probe_cap: Duration,
    /// How often the background prober sweeps the backends.
    pub health_interval: Duration,
    /// Idle keep-alive connections retained per backend.
    pub pool_cap: usize,
    /// Largest request body accepted (larger ⇒ `413`).
    pub max_body: usize,
    /// Flight-recorder capacity in spans (0 disables tracing).
    pub trace_cap: usize,
    /// Requests slower than this log their span tree to stderr
    /// (`None` disables the slow-request log).
    pub slow_threshold: Option<Duration>,
    /// Accept an empty initial backend list and serve `502` until the
    /// control plane pushes the first topology via
    /// [`RouterHandle::update_backends`].
    pub dynamic: bool,
    /// Time source for the routing logic (deadlines, hedge timing,
    /// breaker probe schedules, latency accounting). Defaults to the
    /// wall clock; the simulation harness injects a virtual clock.
    pub clock: ClockHandle,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            vnodes: crate::hash::DEFAULT_VNODES,
            timeout: Duration::from_secs(2),
            deadline: Duration::from_secs(5),
            hedge_min: Duration::from_millis(30),
            failure_threshold: 3,
            probe_start: Duration::from_millis(50),
            probe_cap: Duration::from_secs(2),
            health_interval: Duration::from_millis(100),
            pool_cap: crate::pool::DEFAULT_POOL_CAP,
            max_body: DEFAULT_MAX_BODY,
            trace_cap: DEFAULT_TRACE_CAP,
            slow_threshold: Some(Duration::from_secs(1)),
            dynamic: false,
            clock: ClockHandle::default(),
        }
    }
}

/// How often blocked loops wake up to check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// Everything the connection threads and the prober share.
struct Shared {
    cfg: ClusterConfig,
    /// The live topology generation. Swapped whole by config pushes;
    /// readers clone the `Arc` once and never see a mixed generation.
    topology: RwLock<Arc<Topology>>,
    metrics: Arc<ClusterMetrics>,
    recorder: Arc<FlightRecorder>,
    /// The drain flag: the acceptor, the connection threads and the
    /// prober poll it, and [`RouterHandle::shutdown_flag`] hands it to
    /// the signal handler.
    shutdown: Arc<AtomicBool>,
}

impl Shared {
    /// One consistent snapshot of the backend set.
    fn topology(&self) -> Arc<Topology> {
        Arc::clone(&self.topology.read().unwrap())
    }
}

/// A running router. Call [`RouterHandle::shutdown`] to drain.
pub struct RouterHandle {
    /// The address actually bound (resolves port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<u64>,
    prober: JoinHandle<()>,
}

/// Final per-backend counters reported when the router drains.
#[derive(Clone, Debug)]
pub struct BackendSummary {
    /// Backend address.
    pub addr: String,
    /// Proxied attempts (live + hedged).
    pub requests: u64,
    /// Transport-level failures.
    pub errors: u64,
    /// 503-busy answers.
    pub busy: u64,
    /// Hedges fired because this backend stalled.
    pub hedges: u64,
    /// Requests rerouted away from this backend.
    pub failovers: u64,
    /// Breaker transitions over the router's lifetime.
    pub breaker_opens: u64,
    /// Half-open probes admitted.
    pub breaker_half_opens: u64,
    /// Recoveries to closed.
    pub breaker_closes: u64,
}

impl BackendSummary {
    /// The counters of one backend slot, as they stand.
    pub fn of(slot: &BackendSlot) -> BackendSummary {
        let m = &slot.metrics;
        BackendSummary {
            addr: slot.addr().to_string(),
            requests: m.requests.load(Ordering::Relaxed),
            errors: m.errors.load(Ordering::Relaxed),
            busy: m.busy.load(Ordering::Relaxed),
            hedges: m.hedges.load(Ordering::Relaxed),
            failovers: m.failovers.load(Ordering::Relaxed),
            breaker_opens: slot.breaker.opened_total(),
            breaker_half_opens: slot.breaker.half_opened_total(),
            breaker_closes: slot.breaker.closed_total(),
        }
    }
}

/// Final counters reported when the router drains.
#[derive(Clone, Debug)]
pub struct RouterSummary {
    /// Client-facing requests accepted.
    pub requests: u64,
    /// Client-facing requests that exhausted every backend.
    pub request_errors: u64,
    /// Hedged duplicates whose response won the race.
    pub hedge_wins: u64,
    /// Topology epoch at drain time.
    pub epoch: u64,
    /// Per-backend counters for the final topology, in ring order.
    pub backends: Vec<BackendSummary>,
}

impl std::fmt::Display for RouterSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "routed {} requests | exhausted {} | hedge wins {} | epoch {}",
            self.requests, self.request_errors, self.hedge_wins, self.epoch
        )?;
        for b in &self.backends {
            writeln!(
                f,
                "  {}: {} attempts, {} errors, {} busy, {} hedges, {} failovers, \
                 breaker {}o/{}h/{}c",
                b.addr,
                b.requests,
                b.errors,
                b.busy,
                b.hedges,
                b.failovers,
                b.breaker_opens,
                b.breaker_half_opens,
                b.breaker_closes,
            )?;
        }
        Ok(())
    }
}

/// Rejects duplicate backend addresses and entries that point at the
/// router itself (`local` holds the router's configured and bound
/// addresses). A self-referential entry would make the router proxy to
/// its own front door — an infinite loop the old static validation
/// silently allowed.
fn validate_backends(backends: &[String], local: &[String]) -> Result<(), String> {
    for (i, b) in backends.iter().enumerate() {
        if backends[..i].contains(b) {
            return Err(format!("duplicate backend address {b}: each backend may be listed once"));
        }
        if local.iter().any(|l| l == b) {
            return Err(format!(
                "backend {b} is the router's own address: a router cannot route to itself"
            ));
        }
    }
    Ok(())
}

fn invalid(why: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, why)
}

/// Binds the listener and spins up the acceptor and the health prober.
///
/// Startup validation: a static router (the default) needs at least one
/// backend; duplicates are rejected before the bind, self-referential
/// entries (matching either the configured or the resolved listen
/// address) right after it.
pub fn start(cfg: ClusterConfig) -> std::io::Result<RouterHandle> {
    if !cfg.dynamic && cfg.backends.is_empty() {
        return Err(invalid("cluster needs at least one backend".into()));
    }
    // Duplicates need no bound address — catch them before taking the port.
    validate_backends(&cfg.backends, &[]).map_err(invalid)?;
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    validate_backends(&cfg.backends, &[cfg.addr.clone(), addr.to_string()]).map_err(invalid)?;

    let shared = Arc::new(Shared {
        topology: RwLock::new(Arc::new(Topology::initial(&cfg))),
        metrics: Arc::new(ClusterMetrics::new()),
        recorder: FlightRecorder::new(cfg.trace_cap),
        cfg,
        shutdown: Arc::new(AtomicBool::new(false)),
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            hre_runtime::serve_connections(&listener, &shared.shutdown, |stream| {
                hre_svc::http::serve_keep_alive(
                    stream,
                    shared.cfg.max_body,
                    &shared.shutdown,
                    Some(&shared.metrics.open_connections),
                    || {},
                    |req| route(req, &shared),
                )
            })
        })
    };
    let prober = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || prober_loop(&shared))
    };

    Ok(RouterHandle { addr, shared, acceptor, prober })
}

impl RouterHandle {
    /// The flag that triggers a graceful drain — hand it to
    /// `signal_hook::flag::register` so SIGTERM/SIGINT stop the router.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.shutdown)
    }

    /// Current metrics, rendered as the `/metrics` endpoint would.
    pub fn metrics_text(&self) -> String {
        let topo = self.shared.topology();
        self.shared.metrics.render_prometheus(&topo, &self.shared.recorder.stage_snapshots())
    }

    /// The router's flight recorder (for tests and embedding callers).
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.recorder)
    }

    /// Client-facing requests accepted so far — a live progress counter,
    /// so chaos harnesses can trigger faults *mid-load* instead of after
    /// a wall-clock sleep that a faster engine silently outruns.
    pub fn requests_seen(&self) -> u64 {
        self.shared.metrics.requests.load(Ordering::Relaxed)
    }

    /// The control-plane epoch of the active topology.
    pub fn epoch(&self) -> u64 {
        self.shared.topology().epoch
    }

    /// The backend addresses in the active topology, in ring order.
    pub fn backends(&self) -> Vec<String> {
        self.shared.topology().slots.iter().map(|s| s.addr().to_string()).collect()
    }

    /// The backend address that owns a label sequence (ignoring health)
    /// — the same placement the request path uses.
    pub fn primary_backend(&self, labels: &[u64]) -> String {
        let topo = self.shared.topology();
        let i = topo.ring.primary(shard_key(labels)).expect("non-empty ring");
        topo.slots[i].addr().to_string()
    }

    /// A cloneable controller for the reconfiguration surface — what a
    /// control-plane callback captures. The callback must outlive any
    /// single borrow of the handle (and [`RouterHandle::shutdown`]
    /// consumes the handle), so the controller carries its own reference
    /// to the router internals.
    pub fn controller(&self) -> RouterController {
        RouterController { shared: Arc::clone(&self.shared), addr: self.addr }
    }

    /// Applies a control-plane config push; see
    /// [`RouterController::update_backends`].
    pub fn update_backends(&self, epoch: u64, backends: &[String]) -> Result<(), String> {
        self.controller().update_backends(epoch, backends)
    }

    /// Force-opens a dead member's breaker; see
    /// [`RouterController::trip_backend`].
    pub fn trip_backend(&self, addr: &str) -> bool {
        self.controller().trip_backend(addr)
    }

    /// Requests a drain and joins the acceptor (which joins every
    /// connection thread) and the prober.
    pub fn shutdown(self) -> RouterSummary {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.acceptor.join().expect("acceptor panicked");
        self.prober.join().expect("prober panicked");
        let m = &self.shared.metrics;
        let topo = self.shared.topology();
        let backends = topo.slots.iter().map(|slot| BackendSummary::of(slot)).collect();
        RouterSummary {
            requests: m.requests.load(Ordering::Relaxed),
            request_errors: m.request_errors.load(Ordering::Relaxed),
            hedge_wins: m.hedge_wins.load(Ordering::Relaxed),
            epoch: topo.epoch,
            backends,
        }
    }

    /// Blocks until `flag` (typically wired to SIGTERM/SIGINT) flips,
    /// then drains. Used by `hre cluster-route`.
    pub fn run_until(self, flag: &AtomicBool) -> RouterSummary {
        while !flag.load(Ordering::Relaxed) {
            std::thread::sleep(POLL);
        }
        self.shutdown()
    }
}

/// The router's reconfiguration surface, detached from the owning
/// [`RouterHandle`] so control-plane callbacks (`on_config`/`on_death`)
/// can hold it while the handle itself stays free to drain.
#[derive(Clone)]
pub struct RouterController {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl std::fmt::Debug for RouterController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterController").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl RouterController {
    /// Applies a control-plane config push: swap the topology to
    /// `backends` at `epoch`. Slots shared with the previous generation
    /// keep their breaker state, warm pools, and counters
    /// ([`Topology::successor`]).
    ///
    /// **Epoch fencing**: a push whose epoch is *below* the active one
    /// comes from a deposed coordinator and is refused. The active
    /// epoch re-pushed (same backend set or not) is accepted — that is
    /// the live coordinator's periodic refresh, and it must be able to
    /// repair a member that missed the original push. Every push is
    /// recorded as a [`Stage::Reconfigure`] root span, accepted or not.
    pub fn update_backends(&self, epoch: u64, backends: &[String]) -> Result<(), String> {
        let t0 = self.shared.cfg.clock.now();
        let result = (|| {
            validate_backends(backends, &[self.shared.cfg.addr.clone(), self.addr.to_string()])?;
            if !self.shared.cfg.dynamic && backends.is_empty() {
                return Err("refusing to reconfigure a static router to zero backends".into());
            }
            let mut slot = self.shared.topology.write().unwrap();
            if epoch < slot.epoch {
                ClusterMetrics::inc(&self.shared.metrics.stale_configs);
                return Err(format!(
                    "stale config push: epoch {epoch} is behind the active epoch {}",
                    slot.epoch
                ));
            }
            *slot = Arc::new(slot.successor(epoch, backends, &self.shared.cfg));
            ClusterMetrics::inc(&self.shared.metrics.reconfigures);
            Ok(())
        })();
        let rec = &self.shared.recorder;
        let trace_id = rec.mint_trace();
        let root = rec.next_span_id();
        rec.record_span_with_id(
            root,
            trace_id,
            SpanId::NONE,
            Stage::Reconfigure,
            t0,
            self.shared.cfg.clock.now(),
            SpanAttrs { a: epoch, b: result.is_ok() as u64, err: result.is_err(), root: true },
        );
        result
    }

    /// Force-open the breaker for `addr` — the control plane declared
    /// the member dead (missed heartbeats), so stop sending it live
    /// traffic *now* instead of burning `failure_threshold` real
    /// requests discovering the hole. Returns whether the address is in
    /// the active topology.
    pub fn trip_backend(&self, addr: &str) -> bool {
        let topo = self.shared.topology();
        match topo.slot_for(addr) {
            Some(slot) => {
                slot.breaker.trip_at(self.shared.cfg.clock.now());
                slot.pool.clear();
                true
            }
            None => false,
        }
    }
}

/// Dispatches one parsed request.
fn route(req: &Request, shared: &Arc<Shared>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/elect") => handle_elect(req, shared),
        ("POST", "/elect/batch") => handle_elect_batch(req, shared),
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => {
            let topo = shared.topology();
            Response::text(
                200,
                shared.metrics.render_prometheus(&topo, &shared.recorder.stage_snapshots()),
            )
        }
        ("GET", "/cluster") => Response::json(200, cluster_doc(shared).to_string()),
        ("GET", path) if path.starts_with("/trace/") => {
            handle_trace_merged(&path["/trace/".len()..], shared)
        }
        ("POST", _) | ("GET", _) => Response::json(404, error_json("no such endpoint")),
        _ => Response::json(405, error_json("method not allowed")),
    }
}

/// The router's trace read side. `/trace/recent` lists the router's own
/// root spans; `/trace/<id>` additionally fans out to every backend's
/// `/trace/<id>` and merges whatever spans they still retain, tagging
/// each span's `src` with who recorded it — that is how one client
/// request becomes one connected tree spanning router and backends.
fn handle_trace_merged(tail: &str, shared: &Arc<Shared>) -> Response {
    if tail == "recent" {
        return hre_svc::server::handle_trace(tail, &shared.recorder);
    }
    let Some(trace_id) = TraceId::from_hex(tail) else {
        return Response::json(400, error_json("trace id must be 1-16 hex digits, nonzero"));
    };
    let mut spans = shared.recorder.trace_spans(trace_id);
    for s in &mut spans {
        s.src = "cluster".into();
    }
    let fetch_timeout = shared.cfg.timeout.min(Duration::from_millis(500));
    let topo = shared.topology();
    for slot in &topo.slots {
        // Fresh connections, not the proxy pools: a trace fetch must not
        // evict a request path's keep-alive connection mid-race.
        let fetched = Client::connect(slot.addr(), fetch_timeout)
            .and_then(|mut c| c.get(&format!("/trace/{}", trace_id.to_hex())));
        if let Ok(resp) = fetched {
            if resp.status == 200 {
                if let Ok(remote) = tracewire::spans_from_doc(&resp.body_text()) {
                    spans.extend(remote.into_iter().map(|mut s| {
                        s.src = slot.addr().to_string();
                        s
                    }));
                }
            }
        }
    }
    if spans.is_empty() {
        return Response::json(
            404,
            error_json("no spans retained for that trace (evicted, or never seen)"),
        );
    }
    Response::json(200, tracewire::trace_doc(trace_id, &spans))
}

/// The `GET /cluster` topology document.
fn cluster_doc(shared: &Shared) -> Json {
    let topo = shared.topology();
    let backends: Vec<Json> = topo
        .slots
        .iter()
        .map(|slot| {
            let bm = &slot.metrics;
            let br = &slot.breaker;
            json::obj(vec![
                ("addr", Json::Str(slot.addr().to_string())),
                ("state", Json::Str(br.peek_state().as_str().into())),
                ("requests", Json::Num(bm.requests.load(Ordering::Relaxed) as i128)),
                ("errors", Json::Num(bm.errors.load(Ordering::Relaxed) as i128)),
                ("busy", Json::Num(bm.busy.load(Ordering::Relaxed) as i128)),
                ("hedges", Json::Num(bm.hedges.load(Ordering::Relaxed) as i128)),
                ("failovers", Json::Num(bm.failovers.load(Ordering::Relaxed) as i128)),
                ("breaker_opens", Json::Num(br.opened_total() as i128)),
            ])
        })
        .collect();
    json::obj(vec![
        ("epoch", Json::Num(topo.epoch as i128)),
        ("vnodes", Json::Num(topo.ring.vnodes() as i128)),
        ("backends", Json::Arr(backends)),
    ])
}

/// One proxied attempt's outcome: its attempt number within the
/// request and the transport result.
type Attempt = (usize, std::io::Result<ClientResponse>);

/// The trace a proxied request reports under: the (propagated or
/// minted) trace id and the front-door root span its attempts hang off.
#[derive(Clone, Copy)]
struct TraceCtx {
    trace_id: TraceId,
    root: SpanId,
}

/// Fires one attempt on its own thread; the result lands in `tx` (the
/// receiver may be gone if another attempt already won — that's fine).
/// The attempt's span id is minted before the thread launches and sent
/// to the backend as `x-parent-span`, so the backend's own root span
/// hangs under this attempt in the merged tree; the span itself is
/// recorded when the attempt resolves — even if it resolved too late to
/// matter. The attempt holds its own `Arc` to the slot, so a topology
/// swap mid-attempt cannot pull the pool out from under it.
#[allow(clippy::too_many_arguments)]
fn spawn_attempt(
    shared: Arc<Shared>,
    slot: Arc<BackendSlot>,
    (attempt, idx): (usize, usize),
    path: &'static str,
    body: Arc<Vec<u8>>,
    tx: Sender<Attempt>,
    ctx: TraceCtx,
    hedge: bool,
) {
    let TraceCtx { trace_id, root } = ctx;
    if hedge {
        shared.metrics.hedges_inflight.fetch_add(1, Ordering::Relaxed);
    }
    let span = shared.recorder.next_span_id();
    std::thread::spawn(move || {
        let t0 = shared.cfg.clock.now();
        let result = (|| {
            let mut client = slot.pool.get()?;
            let resp = client.request_with_headers(
                "POST",
                path,
                &[("x-trace-id", &trace_id.to_hex()), ("x-parent-span", &span.to_hex())],
                Some(&body),
            )?;
            slot.pool.put(client);
            Ok(resp)
        })();
        let err = match &result {
            Ok(resp) => resp.status >= 500,
            Err(_) => true,
        };
        shared.recorder.record_span_with_id(
            span,
            trace_id,
            root,
            Stage::Attempt,
            t0,
            shared.cfg.clock.now(),
            SpanAttrs { a: idx as u64, err, ..Default::default() },
        );
        let _ = tx.send((attempt, result));
        if hedge {
            shared.metrics.hedges_inflight.fetch_sub(1, Ordering::Relaxed);
        }
    });
}

/// Wraps a front-door handler in the request envelope: count the
/// request, then [`hre_svc::server::with_request_span`] (adopt or mint
/// the trace, record the root `request` span, log slow requests, stamp
/// `x-trace-id`).
fn with_request_span(
    req: &Request,
    shared: &Arc<Shared>,
    interior: impl FnOnce(TraceCtx, Instant) -> Response,
) -> Response {
    ClusterMetrics::inc(&shared.metrics.requests);
    let (rec, cfg) = (&shared.recorder, &shared.cfg);
    hre_svc::server::with_request_span(req, rec, &cfg.clock, cfg.slow_threshold, |t, root, at| {
        interior(TraceCtx { trace_id: t, root }, at)
    })
}

/// The `POST /elect` front door: validate, pick candidates, forward
/// with failover and hedging, inside the request envelope.
fn handle_elect(req: &Request, shared: &Arc<Shared>) -> Response {
    with_request_span(req, shared, |ctx, started| {
        // Validate locally so garbage is never forwarded; the error body
        // is byte-identical to what a backend would have answered.
        match ElectRequest::from_json(&req.body) {
            Ok(request) => {
                let topo = shared.topology();
                if topo.is_empty() {
                    ClusterMetrics::inc(&shared.metrics.request_errors);
                    Response::json(
                        502,
                        error_json("no backends configured (awaiting control-plane config)"),
                    )
                } else {
                    let resp =
                        forward(shared, &topo, &request.labels, "/elect", &req.body, started, ctx);
                    let spent = shared.cfg.clock.now().saturating_duration_since(started);
                    shared.metrics.request_latency.record(spent);
                    resp
                }
            }
            Err(why) => Response::json(400, error_json(&why)),
        }
    })
}

/// The `POST /elect/batch` front door: split the batch by shard,
/// forward one sub-batch per owning backend (each with the full
/// breaker/failover/hedging treatment), and scatter the answers back
/// into request order.
fn handle_elect_batch(req: &Request, shared: &Arc<Shared>) -> Response {
    with_request_span(req, shared, |ctx, started| {
        let resp = batch_response(&req.body, shared, started, ctx);
        let spent = shared.cfg.clock.now().saturating_duration_since(started);
        shared.metrics.request_latency.record(spent);
        resp
    })
}

/// One backend's share of a batch: a representative label sequence
/// (every entry in the group shards to the same backend), the original
/// entry indices to scatter answers back to, and the entry bodies.
struct ShardBatch {
    labels: Vec<u64>,
    members: Vec<usize>,
    bodies: Vec<String>,
}

/// The traced interior of [`handle_elect_batch`]. Entries that fail
/// validation are answered in place (never forwarded); valid entries
/// are grouped by the backend that owns their shard key, each group is
/// re-serialized as a sub-batch body and forwarded concurrently through
/// [`forward`], and a 200 sub-response is scattered element-by-element
/// back to the originating slots. A sub-batch that comes back non-200
/// (shard unreachable, budget exhausted) scatters its error document to
/// every entry it carried; the batch itself still answers 200, with
/// `x-batch-errors` counting the affected entries.
fn batch_response(body: &[u8], shared: &Arc<Shared>, started: Instant, ctx: TraceCtx) -> Response {
    ClusterMetrics::inc(&shared.metrics.batch_requests);
    let entries = match hre_svc::batch_from_json(body) {
        Ok(entries) => entries,
        Err(why) => return Response::json(400, error_json(&why)),
    };
    shared.metrics.batch_entries.fetch_add(entries.len() as u64, Ordering::Relaxed);
    let topo = shared.topology();
    if topo.is_empty() {
        ClusterMetrics::inc(&shared.metrics.request_errors);
        return Response::json(
            502,
            error_json("no backends configured (awaiting control-plane config)"),
        );
    }

    // Group valid entries by owning backend. Re-serializing each entry
    // from its parsed form is safe: `parse ∘ to_json` is idempotent, and
    // the backend re-validates anyway. BTreeMap keeps dispatch order
    // deterministic (ring order, not hash order).
    let mut parts: Vec<Option<String>> = Vec::with_capacity(entries.len());
    let mut groups: BTreeMap<usize, ShardBatch> = BTreeMap::new();
    for (i, entry) in entries.into_iter().enumerate() {
        match entry {
            Err(why) => parts.push(Some(error_json(&why))),
            Ok(request) => {
                let primary =
                    topo.ring.primary(shard_key(&request.labels)).expect("non-empty ring");
                let group = groups.entry(primary).or_insert_with(|| ShardBatch {
                    labels: request.labels.clone(),
                    members: Vec::new(),
                    bodies: Vec::new(),
                });
                group.members.push(i);
                group.bodies.push(request.to_json().to_string());
                parts.push(None);
            }
        }
    }
    shared.metrics.batch_fanout.fetch_add(groups.len() as u64, Ordering::Relaxed);

    // Forward every sub-batch concurrently; each gets the same failover
    // and hedging treatment a single request would.
    let groups: Vec<ShardBatch> = groups.into_values().collect();
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .iter()
            .map(|group| {
                scope.spawn(|| {
                    let sub_body = hre_svc::batch_response_body(&group.bodies);
                    forward(
                        shared,
                        &topo,
                        &group.labels,
                        "/elect/batch",
                        sub_body.as_bytes(),
                        started,
                        ctx,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sub-batch thread")).collect()
    });

    let mut failed_entries = 0u64;
    for (group, resp) in groups.iter().zip(&responses) {
        let members = &group.members;
        let scattered = if resp.status == 200 {
            std::str::from_utf8(&resp.body).ok().and_then(|text| Json::parse(text).ok()).and_then(
                |doc| {
                    let arr = doc.as_arr()?;
                    if arr.len() != members.len() {
                        return None;
                    }
                    Some(arr.iter().map(|e| e.to_string()).collect::<Vec<String>>())
                },
            )
        } else {
            None
        };
        match scattered {
            Some(elements) => {
                for (&slot, element) in members.iter().zip(elements) {
                    parts[slot] = Some(element);
                }
            }
            None => {
                // The whole shard failed: relay its error document to
                // every entry it carried.
                failed_entries += members.len() as u64;
                let error = String::from_utf8_lossy(&resp.body).into_owned();
                for &slot in members {
                    parts[slot] = Some(error.clone());
                }
            }
        }
    }
    shared.metrics.batch_entry_errors.fetch_add(failed_entries, Ordering::Relaxed);

    let parts: Vec<String> =
        parts.into_iter().map(|p| p.expect("every batch entry was answered")).collect();
    Response::json(200, hre_svc::batch_response_body(&parts))
        .with_header("x-batch-errors", failed_entries.to_string())
}

/// Drives one [`Forward`] machine against one topology snapshot: every
/// launch, hedge, failover and final-answer decision is the machine's;
/// this function only sends attempts on threads, waits on their channel
/// until the machine's next wake-up, and turns the verdict into a
/// response. The shard hash and the candidate pick are recorded as the
/// `hash` and `breaker_check` spans.
fn forward(
    shared: &Arc<Shared>,
    topo: &Arc<Topology>,
    labels: &[u64],
    path: &'static str,
    body: &[u8],
    started: Instant,
    ctx: TraceCtx,
) -> Response {
    let TraceCtx { trace_id, root } = ctx;
    let rec = &shared.recorder;
    let clock = &shared.cfg.clock;
    let hash_start = clock.now();
    let key = shard_key(labels);
    let breaker_start = clock.now();
    let mut machine = Forward::new(
        Arc::clone(topo),
        Arc::clone(&shared.metrics),
        key,
        breaker_start,
        started + shared.cfg.deadline,
        shared.cfg.hedge_min,
    );
    let picked = clock.now();
    let primary = topo.ring.primary(key).unwrap_or_default() as u64;
    let (admitted, ring) = (machine.candidates().len() as u64, topo.len() as u64);
    rec.record_span(
        trace_id,
        root,
        Stage::Hash,
        hash_start,
        breaker_start,
        SpanAttrs { a: primary, b: ring, ..Default::default() },
    );
    rec.record_span(
        trace_id,
        root,
        Stage::BreakerCheck,
        breaker_start,
        picked,
        SpanAttrs { a: admitted, b: ring, ..Default::default() },
    );

    let body = Arc::new(body.to_vec());
    let (tx, rx): (Sender<Attempt>, Receiver<Attempt>) = bounded(topo.len().max(1));
    let mut answers: Vec<Option<ClientResponse>> = Vec::new();
    loop {
        let now = clock.now();
        match machine.poll(now) {
            Step::Launch { attempt, slot, kind } => {
                if kind != AttemptKind::Primary {
                    let stage =
                        if kind == AttemptKind::Hedge { Stage::Hedge } else { Stage::Failover };
                    rec.record_event(trace_id, root, stage, slot as u64, 0);
                }
                spawn_attempt(
                    Arc::clone(shared),
                    Arc::clone(&topo.slots[slot]),
                    (attempt, slot),
                    path,
                    Arc::clone(&body),
                    tx.clone(),
                    ctx,
                    kind == AttemptKind::Hedge,
                );
                answers.push(None);
            }
            Step::Wait(until) => match rx.recv_timeout(until.saturating_duration_since(now)) {
                Ok((attempt, Ok(resp))) => {
                    machine.on_response(clock.now(), attempt, resp.status);
                    answers[attempt] = Some(resp);
                }
                Ok((attempt, Err(_))) => {
                    machine.slot_of(attempt).pool.clear();
                    machine.on_failure(clock.now(), attempt);
                }
                Err(_) => {} // the wake-up instant: poll again
            },
            Step::Done(Verdict::Relay(attempt)) => {
                let resp = answers[attempt].as_ref().expect("relayed attempts answered");
                return pass_through(resp, machine.slot_of(attempt).addr());
            }
            Step::Done(Verdict::Exhausted) => {
                return Response::json(502, error_json("no backend reachable"))
            }
            Step::Done(Verdict::DeadlineExpired) => {
                return Response::json(504, error_json("cluster deadline expired"))
            }
        }
    }
}

/// Relays a backend response to the client, tagging which backend
/// answered and preserving the headers clients act on.
fn pass_through(resp: &ClientResponse, backend: &str) -> Response {
    let mut out =
        Response::json(resp.status, resp.body_text()).with_header("x-backend", backend.to_string());
    for name in ["retry-after", "x-cache"] {
        if let Some(v) = resp.header(name) {
            out = out.with_header(name, v.to_string());
        }
    }
    out
}

/// Sweeps every backend's `GET /healthz` each `health_interval`;
/// outcomes feed the breakers (open breakers admit probes only when the
/// capped backoff says one is due). Each sweep works off a fresh
/// topology snapshot, so new members are probed and removed ones are
/// not.
fn prober_loop(shared: &Arc<Shared>) {
    let probe_timeout = shared.cfg.timeout.min(Duration::from_millis(500));
    while !shared.shutdown.load(Ordering::Relaxed) {
        let topo = shared.topology();
        for slot in &topo.slots {
            if !slot.breaker.allows_request_at(shared.cfg.clock.now()) {
                continue; // open, next probe not due yet
            }
            let healthy = Client::connect(slot.addr(), probe_timeout)
                .and_then(|mut c| c.get("/healthz"))
                .map(|r| r.status == 200)
                .unwrap_or(false);
            if healthy {
                slot.breaker.record_success();
            } else {
                slot.breaker.record_failure_at(shared.cfg.clock.now());
                slot.pool.clear();
            }
        }
        let mut slept = Duration::ZERO;
        while slept < shared.cfg.health_interval {
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let step = POLL.min(shared.cfg.health_interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_relayed_busy_answer_keeps_its_retry_after() {
        let busy = ClientResponse {
            status: 503,
            headers: vec![("retry-after".into(), "1".into())],
            body: error_json("job queue full, retry shortly").into_bytes(),
        };
        let out = pass_through(&busy, "10.0.0.1:80");
        assert_eq!(out.status, 503);
        assert_eq!(out.body, busy.body);
        for (name, value) in [("retry-after", "1"), ("x-backend", "10.0.0.1:80")] {
            assert!(out.headers.iter().any(|(k, v)| k == name && v == value), "{name}");
        }
    }
}
