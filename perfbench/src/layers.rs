//! In-process layer timings for the traced run: the benchmark calls each
//! layer's public functions directly, with no socket, and records a span
//! around every call. Sample counts are fixed per workload, so the
//! allocation counts repeat exactly for a seed.

use crate::alloc;
use crate::gen::{bound_fracs, Script, Workload};
use crate::stats::{mean, quantile, ratio};
use crate::trace::SpanLog;
use hre_cluster::{shard_key, HashRing};
use hre_svc::{
    batch_from_json, batch_response_body, error_json, response_json, run_election, CacheKey,
    ElectRequest, ShardedLru,
};
use hre_words::RotationScratch;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Per-layer numbers, in report order, plus what failed.
pub struct Layers {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub mismatches: u64,
    /// Largest ak/bk time and message fractions of the paper's bounds.
    pub bound_fracs: (f64, f64),
    pub log: SpanLog,
}

/// How many elections and svc requests each workload's in-process pass
/// runs: all 64 hot rings; a slice of the cold and routed ring sets.
fn sizes(w: Workload) -> (usize, usize) {
    match w {
        Workload::HotRotations => (64, 8192),
        Workload::ColdElections => (128, 128),
        Workload::RoutedBatch => (256, 512),
    }
}

pub fn measure(script: &Script, epoch: Instant) -> Layers {
    let mut log = SpanLog::new(epoch, 0x200);
    let mut mismatches = 0;
    let mut metrics = Vec::new();
    let (runs, replays) = sizes(script.workload);

    // words: canonical rotation of every label sequence the workload
    // sends, until at least 20 000 calls.
    let mut scratch = RotationScratch::new();
    let mut out = Vec::new();
    let mut calls = 0u64;
    'words: loop {
        for req in &script.reqs {
            for &(idx, rot) in &req.entries {
                let canon = &script.rings[idx as usize].canon.labels;
                let rot = rot as usize % canon.len();
                let mut labels = canon.clone();
                labels.rotate_right(rot);
                let t0 = Instant::now();
                let d = scratch.canonical_rotation_into(black_box(&labels), &mut out);
                let t1 = Instant::now();
                log.record("words.canon", 0, calls, t0, t1);
                mismatches += (out != *canon || d != rot) as u64;
                calls += 1;
                if calls >= 20_000 {
                    break 'words;
                }
            }
        }
    }
    metrics.push(("words.canon_ns", quantile(&mut log.durations("words.canon"), 0.5), "ns"));

    // algos: the serving path's election call on the workload's rings.
    let mut allocs = Vec::new();
    let (mut msgs, mut units) = (Vec::new(), Vec::new());
    let mut fracs = (0.0f64, 0.0f64);
    for (i, ring) in script.rings.iter().take(runs).enumerate() {
        let a0 = alloc::count();
        let t0 = Instant::now();
        let got = run_election(black_box(&ring.canon));
        let t1 = Instant::now();
        allocs.push((alloc::count() - a0) as f64);
        log.record("algos.run", 0, i as u64, t0, t1);
        match got {
            Ok(out) if out == ring.out => {
                msgs.push(out.messages as f64);
                units.push(out.time_units as f64);
                if let Some((t, m)) = bound_fracs(&ring.canon, &out) {
                    fracs = (fracs.0.max(t), fracs.1.max(m));
                }
            }
            _ => mismatches += 1,
        }
    }
    let mut run_us: Vec<f64> = log.durations("algos.run").iter().map(|ns| ns / 1e3).collect();
    metrics.push(("algos.run_us_p50", quantile(&mut run_us, 0.5), "us"));
    metrics.push(("algos.run_us_p99", quantile(&mut run_us, 0.99), "us"));
    metrics.push(("algos.msgs_per_run", mean(&msgs), "count"));
    metrics.push(("algos.time_units_per_run", mean(&units), "count"));
    metrics.push(("algos.allocs_per_run", mean(&allocs), "count"));
    metrics.push(("algos.msg_bound_frac_max", fracs.1, "ratio"));
    metrics.push(("algos.time_bound_frac_max", fracs.0, "ratio"));

    // svc.api: the daemon's request path without a socket, replaying the
    // warm-up and then the workload's requests through one cache.
    let cache = ShardedLru::new(crate::gen::DAEMON_CACHE_CAP, 8);
    let mut svc = SvcReplay { cache, scratch: RotationScratch::new() };
    for req in &script.warmup {
        let mut scratch_log = SpanLog::new(epoch, 0x201);
        svc.request(&req.body, req.path, &mut scratch_log, 0, 0);
    }
    // Room for every span up front, so recording never allocates inside
    // a counted request: a root, a parse and a batch serialize, and at
    // most five spans per entry.
    let spans: usize = (0..replays as u64).map(|p| 3 + 5 * script.at(p).entries.len()).sum();
    log.spans.reserve(spans);
    let mut req_allocs = Vec::new();
    let (mut batch_entries, mut batch_distinct) = (0u64, 0u64);
    for pos in 0..replays as u64 {
        let req = script.at(pos);
        let a0 = alloc::count();
        let t0 = Instant::now();
        let root = log.id();
        let body = svc.request(&req.body, req.path, &mut log, root, pos);
        let t1 = Instant::now();
        req_allocs.push((alloc::count() - a0) as f64);
        log.record_with_id(root, "svc.request", 0, pos, t0, t1);
        mismatches += (body.as_bytes() != req.expected.as_slice()) as u64;
        if req.path == "/elect/batch" {
            // Rings are distinct by cache key, so distinct ring indices
            // are the entries a batch can dedupe down to.
            batch_entries += req.entries.len() as u64;
            batch_distinct += req.entries.iter().map(|e| e.0).collect::<HashSet<_>>().len() as u64;
        }
    }
    let us = |log: &SpanLog, name| mean(&log.durations(name)) / 1e3;
    metrics.push(("svc.parse_us", us(&log, "svc.parse"), "us"));
    metrics.push(("svc.canon_us", us(&log, "svc.canon"), "us"));
    metrics.push(("svc.cache_get_us", us(&log, "svc.cache_get"), "us"));
    metrics.push(("svc.cache_insert_us", us(&log, "svc.cache_insert"), "us"));
    metrics.push(("svc.elect_us", us(&log, "svc.elect"), "us"));
    metrics.push(("svc.serialize_us", us(&log, "svc.serialize"), "us"));
    metrics.push(("svc.allocs_per_req", mean(&req_allocs), "count"));
    let dedupe = 1.0 - ratio(batch_distinct as f64, batch_entries as f64);
    metrics.push((
        "svc.batch_dedupe_ratio",
        if batch_entries == 0 { 0.0 } else { dedupe },
        "ratio",
    ));

    // cluster: shard key plus failover order over two backends.
    let ring = HashRing::new(&["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()], 128);
    for (i, req) in script.reqs.iter().take(4096).enumerate() {
        for &(idx, _) in &req.entries {
            let labels = &script.rings[idx as usize].canon.labels;
            let t0 = Instant::now();
            let order = ring.preference_order(shard_key(black_box(labels)));
            let t1 = Instant::now();
            black_box(order);
            log.record("cluster.shard", 0, i as u64, t0, t1);
        }
    }
    metrics.push(("cluster.shard_ns", quantile(&mut log.durations("cluster.shard"), 0.5), "ns"));

    Layers { metrics, mismatches, bound_fracs: fracs, log }
}

/// A socket-free model of one svc daemon's `/elect` and `/elect/batch`
/// handling, built from the same public functions the daemon calls.
struct SvcReplay {
    cache: ShardedLru,
    scratch: RotationScratch<u64>,
}

impl SvcReplay {
    /// Answers one request body; each step is a child span of `root`.
    /// A body the daemon would refuse yields its error document, which
    /// then fails the byte comparison.
    fn request(
        &mut self,
        body: &[u8],
        path: &str,
        log: &mut SpanLog,
        root: u64,
        rid: u64,
    ) -> String {
        let t0 = Instant::now();
        if path == "/elect" {
            let parsed = ElectRequest::from_json(body);
            log.record("svc.parse", root, rid, t0, Instant::now());
            match parsed {
                Ok(req) => self.answer(&req, log, root, rid),
                Err(why) => error_json(&why),
            }
        } else {
            let parsed = batch_from_json(body);
            log.record("svc.parse", root, rid, t0, Instant::now());
            let entries = match parsed {
                Ok(entries) => entries,
                Err(why) => return error_json(&why),
            };
            let parts: Vec<String> = entries
                .into_iter()
                .map(|entry| match entry {
                    Ok(req) => self.answer(&req, log, root, rid),
                    Err(why) => error_json(&why),
                })
                .collect();
            let t0 = Instant::now();
            let out = batch_response_body(&parts);
            log.record("svc.serialize", root, rid, t0, Instant::now());
            out
        }
    }

    fn answer(&mut self, req: &ElectRequest, log: &mut SpanLog, root: u64, rid: u64) -> String {
        let t0 = Instant::now();
        let (canon, rot) = req.canonicalized_with(&mut self.scratch);
        let key = CacheKey { canon: canon.labels.clone(), algo: canon.algo, k: canon.k };
        let t1 = Instant::now();
        log.record("svc.canon", root, rid, t0, t1);
        let cached = self.cache.get(&key);
        let t2 = Instant::now();
        log.record("svc.cache_get", root, rid, t1, t2);
        let result = match cached {
            Some(hit) => hit,
            None => {
                let t0 = Instant::now();
                let computed = run_election(&canon);
                let t1 = Instant::now();
                log.record("svc.elect", root, rid, t0, t1);
                self.cache.insert(key, computed.clone());
                log.record("svc.cache_insert", root, rid, t1, Instant::now());
                computed
            }
        };
        let t0 = Instant::now();
        let body = match result {
            Ok(out) => response_json(req, &out.into_coords(rot, req.labels.len())),
            Err(why) => error_json(&why),
        };
        log.record("svc.serialize", root, rid, t0, Instant::now());
        body
    }
}
