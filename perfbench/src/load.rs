//! The load generator: open-loop and closed-loop phases over keep-alive
//! connections, one thread and one connection per core.
//!
//! Every response is checked byte for byte against the precomputed
//! answer. A transport error, a non-200 status or a wrong body counts as
//! a failure; the connection is then reopened and the phase goes on.

use crate::client::{Conn, Resp};
use crate::gen::{Req, Script};
use crate::stats::{quantile, ratio};
use crate::trace::SpanLog;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

/// Lets this thread's sleeps and socket timeouts wake within ~1 µs of
/// their deadline instead of the default 50 µs slack, so the open loop
/// sends on schedule without spinning.
fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches no
    // memory of ours; a failure only leaves the default slack.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
}

/// What one phase observed, summed over its threads.
#[derive(Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    /// 200 answers whose body differed from the expected bytes.
    pub mismatches: u64,
    /// 503 and 504 answers (also counted in `failed`).
    pub busy_503: u64,
    pub deadline_504: u64,
    /// Closed loop only: elections answered correctly inside the window.
    pub elections: u64,
    pub window_s: f64,
    /// Open loop only: latency of each correctly answered request, from
    /// when it was due (µs).
    pub latency_us: Vec<f64>,
    /// How late each request was sent (µs), open loop only.
    pub lag_us: Vec<f64>,
    /// Single requests answered with `x-cache: HIT`, of all singles.
    pub single_hits: u64,
    pub singles: u64,
    /// Single requests per `x-backend`.
    pub by_backend: BTreeMap<String, u64>,
    /// First few failure descriptions.
    pub errors: Vec<String>,
    pub spans: Vec<crate::trace::Span>,
}

impl Phase {
    pub fn merge(&mut self, o: Phase) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        self.busy_503 += o.busy_503;
        self.deadline_504 += o.deadline_504;
        self.elections += o.elections;
        self.window_s += o.window_s;
        self.latency_us.extend(o.latency_us);
        self.lag_us.extend(o.lag_us);
        self.single_hits += o.single_hits;
        self.singles += o.singles;
        for (k, v) in o.by_backend {
            *self.by_backend.entry(k).or_default() += v;
        }
        for e in o.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        self.spans.extend(o.spans);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    /// Elections completed per second inside the window.
    pub fn sat_eps(&self) -> f64 {
        ratio(self.elections as f64, self.window_s)
    }

    /// The `q`-quantile of latency (µs) over every answered request.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        quantile(&mut self.latency_us.clone(), q)
    }

    /// Checks one response; true when it is the expected 200.
    fn check(&mut self, req: &Req, resp: &Resp) -> bool {
        if req.elections == 1 && req.path == "/elect" {
            self.singles += 1;
            self.single_hits += resp.hit as u64;
            if let Some(b) = &resp.backend {
                *self.by_backend.entry(b.clone()).or_default() += 1;
            }
        }
        match resp.status {
            200 if resp.body == req.expected => true,
            200 => {
                self.mismatches += 1;
                self.fail(format!(
                    "body mismatch on {}: got {:.120}",
                    req.path,
                    String::from_utf8_lossy(&resp.body)
                ));
                false
            }
            s => {
                self.busy_503 += (s == 503) as u64;
                self.deadline_504 += (s == 504) as u64;
                self.fail(format!(
                    "status {s} on {}: {:.120}",
                    req.path,
                    String::from_utf8_lossy(&resp.body)
                ));
                false
            }
        }
    }
}

/// Shared settings of a phase.
pub struct Load<'a> {
    pub addr: &'a str,
    pub script: &'a Script,
    /// Next send position in the script, shared by every phase of a run
    /// so the cold workload never revisits a ring early.
    pub cursor: &'a AtomicU64,
    pub threads: usize,
    pub trace: bool,
    pub epoch: Instant,
}

impl Load<'_> {
    fn run_threads(&self, body: impl Fn(usize, &mut Phase) + Sync) -> Phase {
        let parts: Vec<Phase> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|t| {
                    let body = &body;
                    s.spawn(move || {
                        tight_timer_slack();
                        let mut p = Phase::default();
                        body(t, &mut p);
                        p
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
        });
        let mut all = Phase::default();
        for p in parts {
            all.merge(p);
        }
        all
    }

    /// Open loop at `rate` requests/s for `secs`: request `j` of the
    /// phase is script position `base + j` and is due at `j / rate`. It
    /// goes out when due on connection `j mod threads`, pipelined behind
    /// any unanswered ones there, and is timed from when it was due.
    pub fn open(&self, rate: f64, secs: f64) -> Phase {
        let count = (secs * rate).ceil() as u64;
        let base = self.cursor.fetch_add(count, Ordering::Relaxed);
        let start = Instant::now() + Duration::from_millis(5);
        let due_of = |j: u64| start + Duration::from_secs_f64(j as f64 / rate);
        let mut phase = self.run_threads(|t, p| {
            let mut log = SpanLog::new(self.epoch, t as u64 + 1);
            let mut conn = match Conn::connect(self.addr) {
                Ok(c) => c,
                Err(e) => return p.fail(format!("connect: {e}")),
            };
            let mut mine = (t as u64..count).step_by(self.threads);
            let mut next = mine.next();
            // (position, request, due, sent)
            let mut inflight: VecDeque<(u64, &Req, Instant, Instant)> = VecDeque::new();
            loop {
                let now = Instant::now();
                if let Some(j) = next.filter(|&j| now >= due_of(j)) {
                    let pos = base + j;
                    let req = self.script.at(pos);
                    let sent = Instant::now();
                    p.attempted += 1;
                    if let Err(e) = conn.send(&req.wire) {
                        p.fail(format!("send: {e}"));
                        if !reopen(&mut conn, &mut inflight, 0, p, self.addr) {
                            return;
                        }
                    } else {
                        inflight.push_back((pos, req, due_of(j), sent));
                    }
                    next = mine.next();
                    continue;
                }
                if inflight.is_empty() {
                    match next {
                        Some(j) => std::thread::sleep(due_of(j) - now),
                        None => break,
                    }
                    continue;
                }
                let got = match next {
                    Some(j) => conn.recv_within(due_of(j) - now),
                    None => conn.recv().map(Some),
                };
                match got {
                    Ok(None) => {}
                    Ok(Some(resp)) => {
                        let done = Instant::now();
                        let (pos, req, due, sent) =
                            inflight.pop_front().expect("a response has a request");
                        if p.check(req, &resp) {
                            p.latency_us.push((done - due).as_secs_f64() * 1e6);
                            p.lag_us.push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
                        }
                        if self.trace {
                            let root = log.id();
                            log.record("gen.lag", root, pos, due, sent);
                            log.record("gen.rtt", root, pos, sent, done);
                            log.record_with_id(root, "gen.request", 0, pos, due, done);
                        }
                    }
                    Err(e) => {
                        p.fail(format!("recv: {e}"));
                        if !reopen(&mut conn, &mut inflight, 1, p, self.addr) {
                            return;
                        }
                    }
                }
            }
            p.spans = log.spans;
        });
        phase.window_s = secs;
        phase
    }

    /// Closed loop for `secs`: each connection keeps `depth` requests in
    /// flight and sends the next as soon as one is answered.
    pub fn closed(&self, depth: usize, secs: f64) -> Phase {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let mut phase = self.run_threads(|t, p| {
            let mut log = SpanLog::new(self.epoch, 0x100 + t as u64);
            let mut conn = match Conn::connect(self.addr) {
                Ok(c) => c,
                Err(e) => return p.fail(format!("connect: {e}")),
            };
            let mut inflight: VecDeque<(u64, &Req, Instant, Instant)> = VecDeque::new();
            loop {
                while inflight.len() < depth && Instant::now() < end {
                    let pos = self.cursor.fetch_add(1, Ordering::Relaxed);
                    let req = self.script.at(pos);
                    let sent = Instant::now();
                    p.attempted += 1;
                    if let Err(e) = conn.send(&req.wire) {
                        p.fail(format!("send: {e}"));
                        if !reopen(&mut conn, &mut inflight, 0, p, self.addr) {
                            return;
                        }
                        continue;
                    }
                    inflight.push_back((pos, req, sent, sent));
                }
                if inflight.is_empty() {
                    break;
                }
                match conn.recv() {
                    Ok(resp) => {
                        let done = Instant::now();
                        let (pos, req, _, sent) =
                            inflight.pop_front().expect("a response has a request");
                        if p.check(req, &resp) && done <= end {
                            p.elections += req.elections as u64;
                        }
                        if self.trace {
                            log.record("gen.request", 0, pos, sent, done);
                        }
                    }
                    Err(e) => {
                        p.fail(format!("recv: {e}"));
                        if !reopen(&mut conn, &mut inflight, 1, p, self.addr) {
                            return;
                        }
                    }
                }
            }
            p.spans = log.spans;
        });
        phase.window_s = secs;
        phase
    }
}

/// After a transport error: every unanswered request failed; reconnect.
/// `counted` is how many of `inflight` the caller already counted.
fn reopen<T>(
    conn: &mut Conn,
    inflight: &mut VecDeque<T>,
    counted: usize,
    p: &mut Phase,
    addr: &str,
) -> bool {
    p.failed += inflight.len().saturating_sub(counted) as u64;
    inflight.clear();
    match Conn::connect(addr) {
        Ok(c) => {
            *conn = c;
            true
        }
        Err(e) => {
            p.fail(format!("reconnect: {e}"));
            false
        }
    }
}

/// Sends each request once, in order, on one connection, and checks it.
pub fn send_all(addr: &str, reqs: &[Req]) -> Phase {
    let mut p = Phase::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            p.fail(format!("connect: {e}"));
            return p;
        }
    };
    for req in reqs {
        p.attempted += 1;
        match conn.send(&req.wire).and_then(|_| conn.recv()) {
            Ok(resp) => {
                p.check(req, &resp);
            }
            Err(e) => {
                p.fail(format!("{e}"));
                match Conn::connect(addr) {
                    Ok(c) => conn = c,
                    Err(_) => return p,
                }
            }
        }
    }
    p
}

/// Median round-trip (µs) of `count` lock-step sends of `req` on one
/// connection; the first answer warms the cache and is not timed.
pub fn rtt_us(addr: &str, req: &Req, count: usize, p: &mut Phase) -> f64 {
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            p.fail(format!("connect: {e}"));
            return 0.0;
        }
    };
    let mut samples = Vec::with_capacity(count);
    for i in 0..=count {
        let t0 = Instant::now();
        p.attempted += 1;
        match conn.send(&req.wire).and_then(|_| conn.recv()) {
            Ok(resp) => {
                let dt = t0.elapsed().as_secs_f64() * 1e6;
                if p.check(req, &resp) && i > 0 {
                    samples.push(dt);
                }
            }
            Err(e) => {
                p.fail(format!("{e}"));
                break;
            }
        }
    }
    crate::stats::median(&mut samples)
}
