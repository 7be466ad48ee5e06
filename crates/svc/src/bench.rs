//! Closed-loop load generator for the daemon — behind `hre bench-svc`
//! and the E19 experiment.
//!
//! A fixed set of keep-alive connections races through a shared request
//! counter; each request optionally *rotates* the base ring by the
//! request index, which keeps every request distinct on the wire while
//! mapping the whole workload onto a single canonical cache entry (the
//! 100%-rotation workload the cache is designed for). `503` responses
//! are retried after the server's own `Retry-After` hint (capped at
//! [`RETRY_AFTER_CAP`]); they count as backpressure events, not
//! failures, and a request that exhausts its retry budget is reported
//! as [`LoadReport::gave_up_busy`] — distinct from [`LoadReport::errors`],
//! which is reserved for transport faults and unexpected 5xx.

use crate::api::ElectRequest;
use crate::http::{Client, ClientResponse};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generation parameters.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// Total elections to issue across all connections.
    pub requests: u64,
    /// Base election request.
    pub base: ElectRequest,
    /// Rotate the ring by the request index (same canonical ring every
    /// time) instead of repeating it verbatim.
    pub rotate: bool,
    /// Entries per HTTP request: `<= 1` sends classic single
    /// `POST /elect` requests; `N > 1` packs `N` elections into each
    /// `POST /elect/batch` body.
    pub batch: usize,
    /// Requests kept in flight per connection (HTTP/1.1 pipelining);
    /// `<= 1` is the classic lock-step closed loop.
    pub pipeline: usize,
    /// Open-loop mode: target aggregate request arrival rate in req/s.
    /// Request `i` is *scheduled* at `start + i/rate` regardless of how
    /// fast the server answers, and its latency is measured from that
    /// scheduled instant — so a server that falls behind accrues queue
    /// wait in the tail instead of silently slowing the generator down
    /// (no coordinated omission). `None` is the classic closed loop.
    pub open_loop: Option<f64>,
}

/// What the load run observed.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests that completed with 200.
    pub ok: u64,
    /// Requests that completed with 422 (spec violation — still a
    /// definitive answer).
    pub failed: u64,
    /// `X-Cache: HIT` responses among the completed requests.
    pub cache_hits: u64,
    /// 503 backpressure responses absorbed by retrying.
    pub retried_busy: u64,
    /// Requests abandoned because every retry attempt answered 503 —
    /// the service stayed saturated, but nothing broke.
    pub gave_up_busy: u64,
    /// Requests abandoned on transport errors or 5xx other than 503.
    pub errors: u64,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Per-request latencies in microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Each connection's own p99 latency in microseconds, sorted
    /// ascending — the fairness lens: a server that starves one
    /// connection shows up here even when the aggregate p99 looks fine.
    pub conn_p99_us: Vec<u64>,
}

impl LoadReport {
    /// The `p`-th percentile latency (0 < p <= 100), if any samples.
    pub fn percentile_us(&self, p: f64) -> Option<u64> {
        if self.latencies_us.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * self.latencies_us.len() as f64).ceil() as usize;
        Some(self.latencies_us[rank.clamp(1, self.latencies_us.len()) - 1])
    }

    /// Completed requests per second.
    pub fn throughput(&self) -> f64 {
        let done = (self.ok + self.failed) as f64;
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            done / secs
        } else {
            0.0
        }
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> Option<u64> {
        let n = self.latencies_us.len() as u64;
        (n > 0).then(|| self.latencies_us.iter().sum::<u64>() / n)
    }

    /// The human-readable summary `hre bench-svc` prints.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} ok + {} spec-failed in {:.3} s — {:.0} req/s\n",
            self.ok,
            self.failed,
            self.wall.as_secs_f64(),
            self.throughput()
        ));
        out.push_str(&format!(
            "cache hits {} | 503 retries {} | gave up busy {} | errors {}\n",
            self.cache_hits, self.retried_busy, self.gave_up_busy, self.errors
        ));
        if let (Some(mean), Some(p50), Some(p95), Some(p99)) = (
            self.mean_us(),
            self.percentile_us(50.0),
            self.percentile_us(95.0),
            self.percentile_us(99.0),
        ) {
            out.push_str(&format!("latency µs: mean {mean} | p50 {p50} | p95 {p95} | p99 {p99}\n"));
        }
        if self.conn_p99_us.len() > 1 {
            let n = self.conn_p99_us.len();
            out.push_str(&format!(
                "per-connection p99 µs: min {} | median {} | max {}  ({} connections)\n",
                self.conn_p99_us[0],
                self.conn_p99_us[n / 2],
                self.conn_p99_us[n - 1],
                n
            ));
        }
        out
    }
}

/// 503 retry attempts per request before giving up as "busy".
const MAX_BUSY_RETRIES: u32 = 50;

/// Longest the client will honor a `Retry-After` hint for. The server
/// speaks whole seconds (the header's unit); a closed-loop benchmark
/// sleeping multiple seconds per retry would measure its own patience,
/// so the hint is honored up to this cap.
pub const RETRY_AFTER_CAP: Duration = Duration::from_millis(250);

/// The wait a `Retry-After` header value asks for: the server's hint in
/// seconds, capped at [`RETRY_AFTER_CAP`]; a short default when the
/// header is absent or unparseable.
fn retry_after_wait(header: Option<&str>) -> Duration {
    header
        .and_then(|v| v.parse::<u64>().ok())
        .map(|secs| Duration::from_secs(secs).min(RETRY_AFTER_CAP))
        .unwrap_or(Duration::from_millis(10))
        .max(Duration::from_millis(1))
}

/// Drives `opts.requests` requests at `addr` and gathers the report.
pub fn run_load(addr: &str, opts: &LoadOptions) -> std::io::Result<LoadReport> {
    let next = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut threads = Vec::new();
    for _ in 0..opts.connections.max(1) {
        let addr = addr.to_string();
        let opts = opts.clone();
        let next = Arc::clone(&next);
        threads.push(std::thread::spawn(move || worker(&addr, &opts, &next, started)));
    }
    let mut report = LoadReport::default();
    for t in threads {
        let mut part = t.join().map_err(|_| std::io::Error::other("load thread panicked"))??;
        report.ok += part.ok;
        report.failed += part.failed;
        report.cache_hits += part.cache_hits;
        report.retried_busy += part.retried_busy;
        report.gave_up_busy += part.gave_up_busy;
        report.errors += part.errors;
        part.latencies_us.sort_unstable();
        if let Some(p99) = part.percentile_us(99.0) {
            report.conn_p99_us.push(p99);
        }
        report.latencies_us.extend(part.latencies_us);
    }
    report.wall = started.elapsed();
    report.latencies_us.sort_unstable();
    report.conn_p99_us.sort_unstable();
    Ok(report)
}

/// Appends election index `i`'s request document to `out` — the ring
/// rotated in place via index arithmetic, no intermediate `Json` tree or
/// clones: at large batch sizes the generator would otherwise spend more
/// time building bodies than the daemon spends answering them.
fn push_entry(out: &mut String, opts: &LoadOptions, i: u64) {
    use std::fmt::Write as _;
    let labels = &opts.base.labels;
    let n = labels.len();
    let rot = if opts.rotate { (i as usize) % n } else { 0 };
    out.push_str("{\"ring\":[");
    for j in 0..n {
        if j > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", labels[(rot + j) % n]);
    }
    let _ = write!(out, "],\"algo\":\"{}\",\"k\":{}}}", opts.base.algo.name(), opts.base.k);
}

/// The path and body for election indices `first..first+count`: the
/// classic single `POST /elect` document for one entry, or a
/// `POST /elect/batch` array when batching is on.
fn request_for(opts: &LoadOptions, first: u64, count: u64) -> (&'static str, String) {
    let mut body = String::new();
    if opts.batch <= 1 && count == 1 {
        push_entry(&mut body, opts, first);
        ("/elect", body)
    } else {
        body.push('[');
        for i in first..first + count {
            if i > first {
                body.push(',');
            }
            push_entry(&mut body, opts, i);
        }
        body.push(']');
        ("/elect/batch", body)
    }
}

/// Folds one definitive (non-503) response into the report. Single
/// responses count themselves; a batch 200 counts each element by
/// whether it elected (`leader`) or failed spec (`error`), and absorbs
/// the daemon's `x-batch-hits` tally. One latency sample per HTTP
/// exchange either way.
fn account(part: &mut LoadReport, path: &str, resp: &ClientResponse, count: u64, spent: Duration) {
    let us = spent.as_micros().min(u64::MAX as u128) as u64;
    if path == "/elect" {
        match resp.status {
            200 | 422 => {
                part.latencies_us.push(us);
                if resp.status == 200 {
                    part.ok += 1;
                } else {
                    part.failed += 1;
                }
                if resp.header("x-cache") == Some("HIT") {
                    part.cache_hits += 1;
                }
            }
            _ => part.errors += 1,
        }
        return;
    }
    if resp.status != 200 {
        part.errors += count;
        return;
    }
    // Elements are tallied without a JSON parse (a tree per element
    // would cost more than the daemon spends answering): the daemon
    // returns exactly one element per entry, a successful element
    // contains `"leader":` exactly once (`"leader_label"` does not
    // match), and error documents never do. Byte-level conformance is
    // pinned by the svc tests and E26; the load generator only tallies.
    let body = resp.body_text();
    if !body.starts_with('[') {
        part.errors += count;
        return;
    }
    part.latencies_us.push(us);
    let ok_n = (body.matches("\"leader\":").count() as u64).min(count);
    part.ok += ok_n;
    part.failed += count - ok_n;
    if let Some(hits) = resp.header("x-batch-hits").and_then(|v| v.parse::<u64>().ok()) {
        part.cache_hits += hits;
    }
}

/// One connection's share of the load (lock-step variant).
fn worker(
    addr: &str,
    opts: &LoadOptions,
    next: &AtomicU64,
    started: Instant,
) -> std::io::Result<LoadReport> {
    if opts.pipeline > 1 {
        return worker_pipelined(addr, opts, next);
    }
    let rate = opts.open_loop.filter(|r| *r > 0.0);
    let mut client = Client::connect(addr, Duration::from_secs(10))?;
    let mut part = LoadReport::default();
    loop {
        let claim = opts.batch.max(1) as u64;
        let i = next.fetch_add(claim, Ordering::Relaxed);
        if i >= opts.requests {
            return Ok(part);
        }
        let count = claim.min(opts.requests - i);
        let (path, body) = request_for(opts, i, count);
        // Open loop: request `i` has a fixed place on the arrival
        // schedule. Wait for it if we are early; if the server has put
        // us behind schedule, send immediately and let the measured
        // latency (taken from the *scheduled* instant) absorb the
        // backlog instead of hiding it.
        let sched = rate.map(|r| started + Duration::from_secs_f64(i as f64 / r));
        if let Some(sched) = sched {
            let wait = sched.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
        // Retry 503s (bounded); reconnect once on transport errors.
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let t0 = sched.unwrap_or_else(Instant::now);
            let resp = match client.post_json(path, &body) {
                Ok(r) => r,
                Err(_) if attempts <= 2 => {
                    client = Client::connect(addr, Duration::from_secs(10))?;
                    continue;
                }
                Err(_) => {
                    part.errors += count;
                    break;
                }
            };
            match resp.status {
                503 if attempts <= MAX_BUSY_RETRIES => {
                    part.retried_busy += 1;
                    std::thread::sleep(retry_after_wait(resp.header("retry-after")));
                }
                503 => {
                    // Retry budget exhausted while the service kept
                    // answering an orderly "busy": backpressure, not a
                    // failure — report it as such.
                    part.gave_up_busy += count;
                    break;
                }
                _ => {
                    account(&mut part, path, &resp, count, t0.elapsed());
                    break;
                }
            }
        }
    }
}

/// One connection's share of the load, with up to `opts.pipeline`
/// requests in flight (HTTP/1.1 pipelining: responses come back in send
/// order, so a `VecDeque` of send timestamps pairs each response with
/// its request). A broken pipe loses everything in flight — those count
/// as errors and the connection is rebuilt.
fn worker_pipelined(
    addr: &str,
    opts: &LoadOptions,
    next: &AtomicU64,
) -> std::io::Result<LoadReport> {
    let mut client = Client::connect(addr, Duration::from_secs(10))?;
    let mut part = LoadReport::default();
    let window = opts.pipeline.max(2);
    let mut inflight: VecDeque<(Instant, &'static str, String, u64, u32)> = VecDeque::new();
    let mut exhausted = false;
    loop {
        while !exhausted && inflight.len() < window {
            let claim = opts.batch.max(1) as u64;
            let i = next.fetch_add(claim, Ordering::Relaxed);
            if i >= opts.requests {
                exhausted = true;
                break;
            }
            let count = claim.min(opts.requests - i);
            let (path, body) = request_for(opts, i, count);
            match client.send("POST", path, &[], Some(body.as_bytes())) {
                Ok(()) => inflight.push_back((Instant::now(), path, body, count, 1)),
                Err(_) => {
                    part.errors += count;
                    for (_, _, _, lost, _) in inflight.drain(..) {
                        part.errors += lost;
                    }
                    client = Client::connect(addr, Duration::from_secs(10))?;
                }
            }
        }
        let Some((t0, path, body, count, attempts)) = inflight.pop_front() else {
            return Ok(part);
        };
        match client.recv() {
            Ok(resp) if resp.status == 503 && attempts <= MAX_BUSY_RETRIES => {
                part.retried_busy += 1;
                std::thread::sleep(retry_after_wait(resp.header("retry-after")));
                match client.send("POST", path, &[], Some(body.as_bytes())) {
                    Ok(()) => inflight.push_back((Instant::now(), path, body, count, attempts + 1)),
                    Err(_) => part.errors += count,
                }
            }
            Ok(resp) if resp.status == 503 => part.gave_up_busy += count,
            Ok(resp) => account(&mut part, path, &resp, count, t0.elapsed()),
            Err(_) => {
                part.errors += count;
                for (_, _, _, lost, _) in inflight.drain(..) {
                    part.errors += lost;
                }
                client = Client::connect(addr, Duration::from_secs(10))?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::AlgoId;
    use crate::server::{start, SvcConfig};

    #[test]
    fn load_run_completes_and_reports_percentiles() {
        let handle = start(SvcConfig { workers: 2, ..Default::default() }).expect("start");
        let base = ElectRequest::new(vec![1, 3, 1, 3, 2, 2, 1, 2], AlgoId::Ak, None).expect("req");
        let opts = LoadOptions {
            connections: 3,
            requests: 40,
            base,
            rotate: true,
            batch: 0,
            pipeline: 0,
            open_loop: None,
        };
        let report = run_load(&handle.addr.to_string(), &opts).expect("load");
        assert_eq!(report.ok, 40, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        // Rotation workload: everything after the first computation hits.
        assert!(report.cache_hits >= 30, "{report:?}");
        assert_eq!(report.latencies_us.len(), 40);
        let p50 = report.percentile_us(50.0).expect("p50");
        let p99 = report.percentile_us(99.0).expect("p99");
        assert!(p50 <= p99);
        assert!(report.throughput() > 0.0);
        let pretty = report.pretty();
        assert!(pretty.contains("req/s"), "{pretty}");
        assert!(pretty.contains("p99"), "{pretty}");
        handle.shutdown();
    }

    #[test]
    fn batched_load_counts_every_entry() {
        let handle = start(SvcConfig { workers: 2, ..Default::default() }).expect("start");
        let base = ElectRequest::new(vec![1, 3, 1, 3, 2, 2, 1, 2], AlgoId::Ak, None).expect("req");
        let opts = LoadOptions {
            connections: 2,
            requests: 30,
            base,
            rotate: true,
            batch: 4,
            pipeline: 0,
            open_loop: None,
        };
        let report = run_load(&handle.addr.to_string(), &opts).expect("load");
        assert_eq!(report.ok, 30, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        // Rotation workload through the batch path still shares one
        // canonical cache entry; only the very first computation misses.
        assert!(report.cache_hits >= 20, "{report:?}");
        // One latency sample per HTTP exchange, not per election:
        // 30 elections in batches of <= 4 is at most 30 and at least 8.
        assert!(report.latencies_us.len() < 30, "{report:?}");
        assert!(report.latencies_us.len() >= 8, "{report:?}");
        handle.shutdown();
    }

    #[test]
    fn pipelined_load_matches_lockstep_totals() {
        let handle = start(SvcConfig { workers: 2, ..Default::default() }).expect("start");
        let base = ElectRequest::new(vec![1, 3, 1, 3, 2, 2, 1, 2], AlgoId::Ak, None).expect("req");
        let opts = LoadOptions {
            connections: 2,
            requests: 24,
            base,
            rotate: true,
            batch: 0,
            pipeline: 4,
            open_loop: None,
        };
        let report = run_load(&handle.addr.to_string(), &opts).expect("load");
        assert_eq!(report.ok, 24, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.latencies_us.len(), 24);
        handle.shutdown();
    }

    #[test]
    fn pipelined_batches_combine_both_modes() {
        let handle = start(SvcConfig { workers: 2, ..Default::default() }).expect("start");
        let base = ElectRequest::new(vec![1, 3, 1, 3, 2, 2, 1, 2], AlgoId::Ak, None).expect("req");
        let opts = LoadOptions {
            connections: 1,
            requests: 20,
            base,
            rotate: true,
            batch: 3,
            pipeline: 3,
            open_loop: None,
        };
        let report = run_load(&handle.addr.to_string(), &opts).expect("load");
        assert_eq!(report.ok, 20, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        handle.shutdown();
    }

    #[test]
    fn open_loop_paces_the_arrival_schedule_and_reports_per_conn_p99() {
        let handle = start(SvcConfig { workers: 2, ..Default::default() }).expect("start");
        let base = ElectRequest::new(vec![1, 3, 1, 3, 2, 2, 1, 2], AlgoId::Ak, None).expect("req");
        // 40 requests at 400/s = at least ~100 ms of schedule; an
        // unpaced closed loop over a warm cache would finish far faster.
        let opts = LoadOptions {
            connections: 2,
            requests: 40,
            base,
            rotate: true,
            batch: 0,
            pipeline: 0,
            open_loop: Some(400.0),
        };
        let report = run_load(&handle.addr.to_string(), &opts).expect("load");
        assert_eq!(report.ok, 40, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        assert!(
            report.wall >= Duration::from_millis(80),
            "schedule not honored: finished in {:?}",
            report.wall
        );
        assert_eq!(report.conn_p99_us.len(), 2, "{report:?}");
        assert!(report.conn_p99_us[0] <= report.conn_p99_us[1]);
        let pretty = report.pretty();
        assert!(pretty.contains("per-connection p99"), "{pretty}");
        handle.shutdown();
    }

    #[test]
    fn retry_after_is_honored_with_a_cap() {
        assert_eq!(retry_after_wait(Some("0")), Duration::from_millis(1));
        assert_eq!(retry_after_wait(Some("1")), RETRY_AFTER_CAP);
        assert_eq!(retry_after_wait(Some("60")), RETRY_AFTER_CAP);
        assert_eq!(retry_after_wait(Some("soon")), Duration::from_millis(10));
        assert_eq!(retry_after_wait(None), Duration::from_millis(10));
    }

    #[test]
    fn gave_up_busy_is_reported_apart_from_errors() {
        let r = LoadReport { ok: 3, gave_up_busy: 2, errors: 1, ..Default::default() };
        let pretty = r.pretty();
        assert!(pretty.contains("gave up busy 2"), "{pretty}");
        assert!(pretty.contains("errors 1"), "{pretty}");
    }

    #[test]
    fn percentile_edge_cases() {
        let mut r = LoadReport::default();
        assert_eq!(r.percentile_us(50.0), None);
        r.latencies_us = vec![10, 20, 30, 40];
        assert_eq!(r.percentile_us(50.0), Some(20));
        assert_eq!(r.percentile_us(100.0), Some(40));
        assert_eq!(r.percentile_us(1.0), Some(10));
    }
}
