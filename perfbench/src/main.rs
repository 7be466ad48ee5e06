//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-rotations --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Run from the repository root. It builds the release `hre` binary,
//! spawns `hre serve` (and, for the routed-batch script of the traced
//! `hot-rotations` run, `hre cluster-route`) as child processes with
//! default flags apart from `--addr` and `--workers`, drives one seeded
//! workload at them over HTTP, checks every answer byte for byte,
//! TERM-drains the daemons, and prints the metrics.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` makes a
//! separate traced run and reports the per-layer ones. The last line of
//! standard output is one JSON object; see `perfbench/README.md`.

mod alloc;
mod client;
mod daemons;
mod gen;
mod host;
mod layers;
mod load;
mod stats;
mod trace;

use daemons::{Scrape, Stack};
use gen::{Script, Workload};
use load::{Load, Phase};
use stats::{median, quantile, ratio};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::AtomicU64;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Length of one round of the untraced run: a fresh stack, warmed up,
/// serves a closed-loop third, then an open-loop two thirds. `setup_s`
/// and `rss_mb` are medians over the rounds' stacks, and `p50_ms` and
/// `sat_eps` are taken over the rounds' phases together, so one daemon
/// process that came out slower than the rest, or a burst of load from
/// another tenant of a shared host, moves the figures by a round's share.
const ROUND_S: f64 = 3.0;

/// Untimed closed-loop load at the start of each round, so thread
/// pools, connections and allocator arenas are warm when timing starts.
const WARM_S: f64 = 0.5;

/// Lock-step round trips timed for `svc.rtt_us` and `cluster.hop_us`.
const RTT_SAMPLES: usize = 2000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or_else(|| {
            format!("unknown workload {workload:?} (hot-rotations | cold-elections)")
        })?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// The cargo target directory the benchmark and `hre` are built into.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from).unwrap_or_else(|| "target".into())
}

/// Builds `hre` from the sources in the current directory.
fn build_hre() -> Result<PathBuf, String> {
    if !Path::new("src/bin/hre.rs").is_file() {
        return Err("run from the repository root: src/bin/hre.rs not found".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "hre"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building hre failed: {status}"));
    }
    Ok(target_dir().join("release").join("hre"))
}

/// What a run found, and what it prints.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// Wrong answers: served bodies and in-process results.
    mismatches: u64,
    /// ak/bk runs over the paper's bounds.
    over_bound: bool,
    /// Daemons that exited non-zero or had to be killed.
    unclean_exits: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn phase(&mut self, name: &str, p: &Phase) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.mismatches += p.mismatches;
        for e in &p.errors {
            self.problems.push(format!("{name}: {e}"));
        }
    }

    fn teardown(&mut self, failures: Vec<String>) {
        self.failed += failures.len() as u64;
        self.unclean_exits += failures.len() as u64;
        self.problems.extend(failures.into_iter().map(|f| format!("teardown: {f}")));
    }

    fn bounds(&mut self, (time, msgs): (f64, f64)) {
        if time > 1.0 || msgs > 1.0 {
            self.over_bound = true;
            self.problems.push(format!(
                "ak/bk exceeded the paper's bounds: time {time:.3}, messages {msgs:.3} of bound"
            ));
        }
    }

    fn correct(&self) -> bool {
        self.mismatches == 0 && !self.over_bound && self.unclean_exits == 0
    }

    /// The human-readable lines, then the result line.
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>14.6} {unit}");
        }
        for p in &self.problems {
            eprintln!("perfbench: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.0 != "error_ratio" && !m.0.starts_with("info."))
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }
}

fn main() {
    let code = match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let bin = build_hre()?;
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("{{\"host\":{}}}", host::block(nproc));
    let script = gen::script(args.workload, args.seed, nproc)?;
    let report = if args.trace {
        traced(&args, &bin, &script, nproc)?
    } else {
        untraced(&args, &bin, &script, nproc)?
    };
    report.print();
    Ok(())
}

fn start(bin: &Path, w: Workload, nproc: usize) -> Result<(Stack, f64), String> {
    Stack::start(bin, stack_size(w), w.routed(), nproc)
}

/// The end-to-end run: no spans anywhere.
fn untraced(args: &Args, bin: &Path, script: &Script, nproc: usize) -> Result<Report, String> {
    let mut r = Report::default();
    let w = args.workload;
    let cursor = AtomicU64::new(0);
    let rounds = ((args.seconds / ROUND_S).round() as usize).max(1);
    let round_s = args.seconds / rounds as f64;
    let mut setups = Vec::with_capacity(rounds);
    let mut rss = Vec::with_capacity(rounds);
    let (mut open, mut closed) = (Phase::default(), Phase::default());
    for _ in 0..rounds {
        let (stack, secs) = start(bin, w, nproc)?;
        setups.push(secs);
        let warm = load::send_all(stack.front(), &script.warmup);
        r.phase("warm-up", &warm);
        let load = Load {
            addr: stack.front(),
            script,
            cursor: &cursor,
            threads: nproc,
            trace: false,
            epoch: Instant::now(),
        };
        let warm = load.closed(w.pipeline_depth(), WARM_S);
        r.phase("warm-up", &warm);
        let c = load.closed(w.pipeline_depth(), round_s / 3.0);
        r.phase("closed loop", &c);
        let o = load.open(w.open_rate(), round_s * 2.0 / 3.0);
        r.phase("open loop", &o);
        open.merge(o);
        closed.merge(c);
        rss.push(stack.peak_rss_mib()?);
        r.teardown(stack.stop());
    }
    r.bounds(script.bound_fracs());

    r.metrics = vec![
        ("setup_s", median(&mut setups), "s"),
        ("p50_ms", open.latency_quantile(0.5) / 1e3, "ms"),
        ("sat_eps", closed.sat_eps(), "elections/s"),
        ("success_ratio", 1.0 - ratio(r.failed as f64, r.attempted as f64), "ratio"),
        ("rss_mb", median(&mut rss), "MiB"),
        ("error_ratio", ratio(r.failed as f64, r.attempted as f64), "ratio"),
        ("info.p99_ms", open.latency_quantile(0.99) / 1e3, "ms"),
        ("info.latency_samples", open.latency_us.len() as f64, "count"),
        ("info.gen_lag_p99_ms", quantile(&mut open.lag_us, 0.99) / 1e3, "ms"),
    ];
    Ok(r)
}

/// The traced run: in-process layer timings, then the served workload
/// with a span around every request. `hot-rotations` also serves the
/// routed-batch script through `hre cluster-route` over 2 backends for
/// the `cluster` layer's numbers.
fn traced(args: &Args, bin: &Path, script: &Script, nproc: usize) -> Result<Report, String> {
    let mut r = Report::default();
    let w = args.workload;
    let epoch = Instant::now();
    let layers = layers::measure(script, epoch);
    r.mismatches += layers.mismatches;
    if layers.mismatches > 0 {
        r.problems.push(format!("{} in-process answers differed", layers.mismatches));
    }
    r.bounds(layers.bound_fracs);
    r.bounds(script.bound_fracs());

    let routed = match w {
        Workload::HotRotations => Some(gen::script(Workload::RoutedBatch, args.seed, nproc)?),
        _ => None,
    };
    let share = if routed.is_some() { 0.6 } else { 1.0 };
    let (mut m, mut spans) = served(&mut r, bin, script, nproc, args.seconds * share, epoch)?;
    let mut layer_metrics = layers.metrics;
    if let Some(routed) = &routed {
        r.bounds(routed.bound_fracs());
        let (probe, probe_spans) =
            served(&mut r, bin, routed, nproc, args.seconds * (1.0 - share), epoch)?;
        for (name, value, _) in m.iter_mut().filter(|x| x.0.starts_with("cluster.")) {
            *value = probe.iter().find(|x| x.0 == *name).map_or(0.0, |x| x.1);
        }
        spans.extend(probe_spans);
        // Only the routed script sends batches, so its in-process pass
        // gives the batch path's dedupe ratio.
        let batches = layers::measure(routed, epoch);
        r.mismatches += batches.mismatches;
        if batches.mismatches > 0 {
            r.problems.push(format!("{} in-process batch answers differed", batches.mismatches));
        }
        r.bounds(batches.bound_fracs);
        let name = "svc.batch_dedupe_ratio";
        let value = batches.metrics.iter().find(|x| x.0 == name).map_or(0.0, |x| x.1);
        if let Some(x) = layer_metrics.iter_mut().find(|x| x.0 == name) {
            x.1 = value;
        }
        spans.extend(batches.log.spans);
    }
    r.metrics = layer_metrics;
    r.metrics.append(&mut m);

    spans.extend(layers.log.spans);
    let path = target_dir().join("perfbench").join(format!("spans-{}.jsonl", w.name()));
    trace::write_jsonl(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("perfbench: {} spans written to {}", spans.len(), path.display());
    Ok(r)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Serves `script` from a fresh stack for `secs` with spans on, and
/// returns the served layers' numbers (`cluster.*` read 0 when the stack
/// has no router) and the spans.
fn served(
    r: &mut Report,
    bin: &Path,
    script: &Script,
    nproc: usize,
    secs: f64,
    epoch: Instant,
) -> Result<(Metrics, Vec<trace::Span>), String> {
    let w = script.workload;
    let (stack, _) = start(bin, w, nproc)?;
    let warm = load::send_all(stack.front(), &script.warmup);
    r.phase("warm-up", &warm);
    let cursor = AtomicU64::new(0);
    let mut load =
        Load { addr: stack.front(), script, cursor: &cursor, threads: nproc, trace: true, epoch };
    let mut open = load.open(w.open_rate(), secs * 0.5);
    r.phase("open loop", &open);
    if open.latency_us.len() < 1000 {
        r.problems.push(format!("only {} latency samples; p99 needs 1000", open.latency_us.len()));
    }
    load.trace = false;
    let plain = load.closed(w.pipeline_depth(), secs * 0.25);
    r.phase("closed loop", &plain);
    load.trace = true;
    let traced = load.closed(w.pipeline_depth(), secs * 0.25);
    r.phase("traced closed loop", &traced);

    // Counters first: the round-trip probes below are all cache hits.
    let backends: Vec<Scrape> =
        stack.backends.iter().map(|b| Scrape::fetch(&b.addr)).collect::<Result<_, _>>()?;
    let router = stack.router.as_ref().map(|d| Scrape::fetch(&d.addr)).transpose()?;

    // Lock-step round trips of one cache hit: straight to the backend
    // that owns it, and through the router when there is one.
    let probe = script.reqs.iter().find(|q| q.path == "/elect").ok_or("no single request")?;
    let mut rtt = Phase::default();
    let direct = match &stack.router {
        Some(router) => {
            let mut conn = client::Conn::connect(&router.addr).map_err(|e| format!("{e}"))?;
            conn.send(&probe.wire).map_err(|e| format!("{e}"))?;
            conn.recv().map_err(|e| format!("{e}"))?.backend.ok_or("router set no x-backend")?
        }
        None => stack.backends[0].addr.clone(),
    };
    let rtt_direct = load::rtt_us(&direct, probe, RTT_SAMPLES, &mut rtt);
    let rtt_routed = match &stack.router {
        Some(router) => load::rtt_us(&router.addr, probe, RTT_SAMPLES, &mut rtt),
        None => 0.0,
    };
    r.phase("round trips", &rtt);
    let sum =
        |family: &str, labels: &str| backends.iter().map(|s| s.sum(family, labels)).sum::<f64>();
    let backend_addrs: Vec<String> = stack.backends.iter().map(|b| b.addr.clone()).collect();
    r.teardown(stack.stop());

    let sent = (open.attempted + plain.attempted + traced.attempted) as f64;
    let hits = sum("hre_svc_cache_hits_total", "");
    let misses = sum("hre_svc_cache_misses_total", "");
    let wakeups = sum("hre_reactor_wakeups_total", "")
        + router.as_ref().map_or(0.0, |s| s.sum("hre_reactor_wakeups_total", ""));
    let cluster = |family: &str| router.as_ref().map_or(0.0, |s| s.sum(family, ""));
    let routed_reqs = cluster("hre_cluster_requests_total");
    // Busiest backend's share of routed singles over the mean share.
    let mut per_backend = vec![0.0; stack_size(w)];
    for (i, b) in backend_addrs.iter().enumerate() {
        for p in [&open, &plain, &traced] {
            per_backend[i] += p.by_backend.get(b).copied().unwrap_or(0) as f64;
        }
    }
    let total: f64 = per_backend.iter().sum();
    let skew = ratio(per_backend.iter().cloned().fold(0.0, f64::max), total / stack_size(w) as f64);
    let single_hits = (open.single_hits + traced.single_hits + plain.single_hits) as f64;
    let singles = (open.singles + traced.singles + plain.singles) as f64;
    let backend_hits_min = backends
        .iter()
        .map(|s| s.sum("hre_svc_cache_hits_total", ""))
        .fold(f64::INFINITY, f64::min);

    let m = vec![
        ("svc.hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("svc.rtt_us", rtt_direct, "us"),
        (
            "svc.queue_wait_us",
            ratio(
                sum("hre_stage_seconds_sum", "stage=\"queue-wait\""),
                sum("hre_stage_seconds_count", "stage=\"queue-wait\""),
            ) * 1e6,
            "us",
        ),
        ("svc.busy_503", sum("hre_svc_requests_rejected_busy_total", ""), "count"),
        ("svc.deadline_504", sum("hre_svc_requests_deadline_expired_total", ""), "count"),
        ("runtime.reactor_wakeups_per_req", ratio(wakeups, sent), "count"),
        ("cluster.hop_us", if w.routed() { rtt_routed - rtt_direct } else { 0.0 }, "us"),
        (
            "cluster.attempts_per_req",
            ratio(cluster("hre_cluster_backend_requests_total"), routed_reqs),
            "count",
        ),
        (
            "cluster.hedges_per_kreq",
            ratio(cluster("hre_cluster_backend_hedges_total") * 1e3, routed_reqs),
            "count",
        ),
        ("cluster.failovers", cluster("hre_cluster_backend_failovers_total"), "count"),
        (
            "cluster.batch_fanout",
            ratio(
                cluster("hre_cluster_batch_fanout_total"),
                cluster("hre_cluster_batch_requests_total"),
            ),
            "count",
        ),
        ("cluster.backend_skew", skew, "ratio"),
        ("cluster.hit_ratio", if w.routed() { ratio(single_hits, singles) } else { 0.0 }, "ratio"),
        ("cluster.backend_hits_min", if w.routed() { backend_hits_min } else { 0.0 }, "count"),
        ("e2e.p99_ms", open.latency_quantile(0.99) / 1e3, "ms"),
        ("e2e.latency_samples", open.latency_us.len() as f64, "count"),
        ("gen.lag_p99_ms", quantile(&mut open.lag_us, 0.99) / 1e3, "ms"),
        ("gen.sent", sent, "count"),
        (
            "trace.overhead_frac",
            1.0 - ratio(traced.elections as f64, plain.elections as f64),
            "ratio",
        ),
    ];
    let mut spans = open.spans;
    spans.extend(traced.spans);
    Ok((m, spans))
}

/// svc daemons in a workload's stack.
fn stack_size(w: Workload) -> usize {
    if w.routed() {
        2
    } else {
        1
    }
}
