//! The seeded workload generator.
//!
//! Rings come from this file, not from `hre generate`: each workload
//! draws its rings from `--seed`, checks them against the engine
//! registry's assumptions, and precomputes the exact response bytes the
//! daemons must return. Expected answers follow the daemon's own path:
//! elect on the canonical rotation, then map the leader back into the
//! request's coordinates ([`hre_svc::ElectOutcome::into_coords`]).

use crate::stats::Rng;
use hre_ring::RingLabeling;
use hre_svc::{
    batch_response_body, response_json, run_election, AlgoId, ElectOutcome, ElectRequest,
};
use std::collections::HashSet;

/// `hre serve`'s default result-cache capacity, which the working-set
/// sizes below are chosen against. The daemons run with default flags.
pub const DAEMON_CACHE_CAP: usize = 1024;

/// A script kind. `HotRotations` and `ColdElections` are the benchmark's
/// workloads; `RoutedBatch` is served only inside the traced run of
/// `HotRotations`, for the `cluster` layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotRotations,
    ColdElections,
    RoutedBatch,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "hot-rotations" => Some(Workload::HotRotations),
            "cold-elections" => Some(Workload::ColdElections),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRotations => "hot-rotations",
            Workload::ColdElections => "cold-elections",
            Workload::RoutedBatch => "routed-batch",
        }
    }

    /// Whether the daemons sit behind `hre cluster-route`.
    pub fn routed(self) -> bool {
        self == Workload::RoutedBatch
    }

    /// Offered rate of the open-loop phase, requests per second. Each
    /// is well under the workload's saturation rate on a 2-core host,
    /// so the phase measures latency, not backlog. The hot rate stays
    /// high enough that the cores rarely idle between requests: on a VM,
    /// waking an idle vCPU costs more than serving a cache hit.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::HotRotations => 10000.0,
            Workload::ColdElections => 60.0,
            Workload::RoutedBatch => 300.0,
        }
    }

    /// Requests kept in flight per connection in the closed-loop phase.
    pub fn pipeline_depth(self) -> usize {
        match self {
            Workload::HotRotations => 8,
            Workload::ColdElections => 4,
            Workload::RoutedBatch => 4,
        }
    }
}

/// One canonical ring with its election settings and outcome.
pub struct Ring {
    /// The request in canonical (least-rotation) coordinates.
    pub canon: ElectRequest,
    /// Its election outcome, in canonical coordinates.
    pub out: ElectOutcome,
}

/// One HTTP request of a workload and the exact body it must return.
pub struct Req {
    /// `/elect` or `/elect/batch`.
    pub path: &'static str,
    /// JSON request body.
    pub body: Vec<u8>,
    /// The complete request bytes on the wire.
    pub wire: Vec<u8>,
    /// The byte-exact 200 body.
    pub expected: Vec<u8>,
    /// Elections the request asks for (batch entries count one each).
    pub elections: u32,
    /// Per entry: index of its canonical ring and its rotation.
    pub entries: Vec<(u32, u32)>,
}

/// A workload's inputs: its rings and its requests, in the order the
/// generator sends them (cycled when a run needs more).
pub struct Script {
    pub workload: Workload,
    pub rings: Vec<Ring>,
    pub reqs: Vec<Req>,
    /// Requests sent once before measuring, to fill the caches.
    pub warmup: Vec<Req>,
}

impl Script {
    /// Largest ak/bk time and message fractions of the paper's bounds
    /// over every ring's precomputed outcome.
    pub fn bound_fracs(&self) -> (f64, f64) {
        self.rings
            .iter()
            .filter_map(|r| bound_fracs(&r.canon, &r.out))
            .fold((0.0, 0.0), |(t, m), (rt, rm)| (f64::max(t, rt), f64::max(m, rm)))
    }

    /// The request at global send position `pos`.
    pub fn at(&self, pos: u64) -> &Req {
        &self.reqs[(pos % self.reqs.len() as u64) as usize]
    }
}

/// The HTTP request bytes for `body` on `path`.
fn wire(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Labels with every multiplicity at most `k`: `⌈n/k⌉ + 1` distinct
/// labels, each available `k` times, shuffled and cut to `n`; redrawn
/// until the word is aperiodic (asymmetric), which almost every draw is.
fn kk_ring(rng: &mut Rng, n: usize, k: usize) -> Vec<u64> {
    let m = n.div_ceil(k) + 1;
    loop {
        let mut pool: Vec<u64> = (1..=m as u64).flat_map(|l| std::iter::repeat_n(l, k)).collect();
        rng.shuffle(&mut pool);
        pool.truncate(n);
        if RingLabeling::from_raw(&pool).is_asymmetric() {
            return pool;
        }
    }
}

/// `n` pairwise-distinct labels from `1..=4n`.
fn distinct_ring(rng: &mut Rng, n: usize) -> Vec<u64> {
    let mut pool: Vec<u64> = (1..=4 * n as u64).collect();
    rng.shuffle(&mut pool);
    pool.truncate(n);
    pool
}

/// A ring of size `n` inside `algo`'s registry class: labels of
/// multiplicity at most `k` for the engines that take a bound, distinct
/// labels for the rest (which also gives content-oblivious its unique
/// maximum, and `4n` stays under its label cap at every size used here).
fn ring_for(rng: &mut Rng, algo: AlgoId, n: usize, k: usize) -> ElectRequest {
    let labels = match algo {
        AlgoId::Ak | AlgoId::AkRef | AlgoId::OracleN | AlgoId::Bk => kk_ring(rng, n, k),
        AlgoId::Cr | AlgoId::Peterson | AlgoId::MaxUid | AlgoId::ContentOblivious => {
            distinct_ring(rng, n)
        }
    };
    let engine = hre_algos::by_name(algo.name()).expect("every AlgoId is registered");
    let ring = RingLabeling::from_raw(&labels);
    engine.supports(&ring).expect("the generator draws rings inside the engine's class");
    ElectRequest::new(labels, algo, Some(k)).expect("generated rings are valid requests")
}

/// One canonical ring per `(algo, n, k)` spec, with distinct cache keys
/// (labels, algo, k), in seeded order, with their outcomes computed on
/// `threads` threads.
///
/// The specs fix every workload's mix of engines, sizes and bounds
/// exactly; the seed draws only labels, rotations and order. The costs
/// a workload offers then hardly move from seed to seed.
fn distinct_rings(
    rng: &mut Rng,
    specs: impl Iterator<Item = (AlgoId, usize, usize)>,
    threads: usize,
) -> Result<Vec<Ring>, String> {
    let mut seen = HashSet::new();
    let mut rings = Vec::new();
    for (algo, n, k) in specs {
        loop {
            let (canon, _) = ring_for(rng, algo, n, k).canonicalized();
            if seen.insert((canon.labels.clone(), canon.algo, canon.k)) {
                rings.push(canon);
                break;
            }
        }
    }
    rng.shuffle(&mut rings);
    let outs = outcomes(&rings, threads)?;
    Ok(rings.into_iter().zip(outs).map(|(canon, out)| Ring { canon, out }).collect())
}

/// Canonical outcomes of every ring, computed on `threads` threads.
/// A ring whose election fails is a generator bug: the workloads are
/// built so that no operation fails.
fn outcomes(rings: &[ElectRequest], threads: usize) -> Result<Vec<ElectOutcome>, String> {
    let chunk = rings.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<Result<Vec<_>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = rings
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(run_election).collect()))
            .collect();
        handles.into_iter().map(|h| h.join().expect("election thread panicked")).collect()
    });
    let mut all = Vec::with_capacity(rings.len());
    for part in parts {
        all.extend(part?);
    }
    Ok(all)
}

/// The request for ring `idx` rotated right by `rot`, and its answer.
fn entry(rings: &[Ring], idx: usize, rot: usize) -> (ElectRequest, String) {
    let canon = &rings[idx].canon;
    let n = canon.labels.len();
    let mut labels = canon.labels.clone();
    labels.rotate_right(rot % n);
    let req = ElectRequest { labels, algo: canon.algo, k: canon.k };
    // canonical = rotate_left(request, rot), exactly the daemon's mapping.
    let body = response_json(&req, &rings[idx].out.clone().into_coords(rot % n, n));
    (req, body)
}

fn single(rings: &[Ring], idx: usize, rot: usize) -> Req {
    let (req, expected) = entry(rings, idx, rot);
    let body = req.to_json().to_string().into_bytes();
    Req {
        path: "/elect",
        wire: wire("/elect", &body),
        body,
        expected: expected.into_bytes(),
        elections: 1,
        entries: vec![(idx as u32, rot as u32)],
    }
}

fn batch(rings: &[Ring], picks: &[(usize, usize)]) -> Req {
    let mut docs = Vec::with_capacity(picks.len());
    let mut parts = Vec::with_capacity(picks.len());
    for &(idx, rot) in picks {
        let (req, expected) = entry(rings, idx, rot);
        docs.push(req.to_json().to_string());
        parts.push(expected);
    }
    let body = format!("[{}]", docs.join(",")).into_bytes();
    Req {
        path: "/elect/batch",
        wire: wire("/elect/batch", &body),
        body,
        expected: batch_response_body(&parts).into_bytes(),
        elections: picks.len() as u32,
        entries: picks.iter().map(|&(i, r)| (i as u32, r as u32)).collect(),
    }
}

/// Builds the inputs of `workload` from `seed`.
pub fn script(workload: Workload, seed: u64, threads: usize) -> Result<Script, String> {
    let mut rng = Rng::new(seed ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    match workload {
        Workload::HotRotations => {
            // ~64 canonical rings, n in [8, 64], mostly ak: a working set
            // far below the cache, so nearly every request is a hit.
            // Sizes evenly spread over [8, 64]; one ring in seven is bk.
            let specs = (0..64).map(|i| {
                let algo = if i % 7 == 3 { AlgoId::Bk } else { AlgoId::Ak };
                (algo, 8 + i * 56 / 63, 2 + i % 2)
            });
            let rings = distinct_rings(&mut rng, specs, threads)?;
            let mut reqs = Vec::with_capacity(8192);
            for _ in 0..8192 {
                let idx = rng.range(0, rings.len() - 1);
                let rot = rng.range(0, rings[idx].canon.labels.len() - 1);
                reqs.push(single(&rings, idx, rot));
            }
            let warmup = (0..rings.len()).map(|i| single(&rings, i, 0)).collect();
            Ok(Script { workload, rings, reqs, warmup })
        }
        Workload::ColdElections => {
            // Distinct rings, n in {32, 64, 128}, over the engine mix.
            // Sent in a fixed cycle twice the cache's size, so an LRU
            // never holds the next ring: the hit ratio is 0 and every
            // request inserts and evicts. ak-ref is left out: at n = 128
            // one run takes ~180 ms, which would dominate every figure.
            // The engine mix per 50 rings: 40 ak, 5 bk, and one each of
            // oracle-n, cr, peterson, max-uid, content-oblivious. Sizes
            // cycle through 32, 64, 64, 128; the n = 64 rings all take
            // k = 2 and the others alternate 2 and 3. The n = 64 rings
            // then make up the middle half of the requests as one cost
            // cluster, so the median request is an ak run at n = 64,
            // k = 2, and not one on the edge between two clusters.
            let size = |i: usize| [32, 64, 64, 128][i % 4];
            let k = |i: usize| if size(i) == 64 { 2 } else { 2 + i / 4 % 2 };
            let mix = |i: usize| match i % 50 {
                0 | 10 | 20 | 30 | 40 => AlgoId::Bk,
                5 => AlgoId::OracleN,
                15 => AlgoId::Cr,
                25 => AlgoId::Peterson,
                35 => AlgoId::MaxUid,
                45 => AlgoId::ContentOblivious,
                _ => AlgoId::Ak,
            };
            let specs = (0..2 * DAEMON_CACHE_CAP).map(|i| (mix(i), size(i), k(i)));
            let rings = distinct_rings(&mut rng, specs, threads)?;
            let reqs: Vec<Req> = (0..rings.len())
                .map(|i| {
                    let rot = rng.range(0, rings[i].canon.labels.len() - 1);
                    single(&rings, i, rot)
                })
                .collect();
            Ok(Script { workload, rings, reqs, warmup: vec![] })
        }
        Workload::RoutedBatch => {
            // 1.5x one backend's cache: too many rings for one shard,
            // few enough for both. A quarter of the requests are batches
            // of 16-64 entries, scattered by the router across shards.
            // Sizes cycle through [8, 32]; one ring in five is bk.
            let specs = (0..DAEMON_CACHE_CAP * 3 / 2).map(|i| {
                let algo = if i % 5 == 0 { AlgoId::Bk } else { AlgoId::Ak };
                (algo, 8 + i % 25, 2 + i / 25 % 2)
            });
            let rings = distinct_rings(&mut rng, specs, threads)?;
            // Every fourth request is a batch; batch sizes cycle through
            // 16..=64. The send order is shuffled.
            let mut reqs = Vec::with_capacity(1024);
            for i in 0..1024 {
                let mut pick = || {
                    let idx = rng.range(0, rings.len() - 1);
                    (idx, rng.range(0, rings[idx].canon.labels.len() - 1))
                };
                if i % 4 == 0 {
                    let picks: Vec<_> = (0..16 + i / 4 % 49).map(|_| pick()).collect();
                    reqs.push(batch(&rings, &picks));
                } else {
                    let (idx, rot) = pick();
                    reqs.push(single(&rings, idx, rot));
                }
            }
            rng.shuffle(&mut reqs);
            // Warm both shards: every ring once, in batches of 256.
            let all: Vec<(usize, usize)> = (0..rings.len()).map(|i| (i, 0)).collect();
            let warmup = all.chunks(256).map(|c| batch(&rings, c)).collect();
            Ok(Script { workload, rings, reqs, warmup })
        }
    }
}

/// Measured time and messages over the paper's bounds for `ak` and
/// `bk` (`None` for engines the paper gives no bound for).
///
/// `ak` (Theorem 3): time ≤ `(2k+2)n`, messages ≤ `n²(2k+1) + n`.
/// `bk` is `O(k²n²)` in both (Theorem 4); the explicit constants are
/// the ones `hre-core`'s Theorem 4 test asserts: time ≤ `(k+1)²n²`,
/// messages ≤ `4(k+1)²n²`.
pub fn bound_fracs(req: &ElectRequest, out: &ElectOutcome) -> Option<(f64, f64)> {
    let (n, k) = (req.labels.len() as f64, req.k as f64);
    let (time, msgs) = match req.algo {
        AlgoId::Ak => ((2.0 * k + 2.0) * n, n * n * (2.0 * k + 1.0) + n),
        AlgoId::Bk => ((k + 1.0).powi(2) * n * n, 4.0 * (k + 1.0).powi(2) * n * n),
        _ => return None,
    };
    Some((out.time_units as f64 / time, out.messages as f64 / msgs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kk_rings_respect_the_multiplicity_bound() {
        let mut rng = Rng::new(3);
        for n in [8, 33, 64, 128] {
            for k in 1..=3 {
                let ring = RingLabeling::from_raw(&kk_ring(&mut rng, n, k));
                assert!(ring.is_asymmetric() && ring.max_multiplicity() <= k, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn expected_bodies_match_a_direct_election_leader() {
        let s = script(Workload::HotRotations, 1, 2).expect("script");
        for req in s.reqs.iter().take(50) {
            let parsed = ElectRequest::from_json(&req.body).expect("valid body");
            let direct = run_election(&parsed).expect("elects");
            let want = response_json(&parsed, &direct);
            let leader = |b: &[u8]| {
                let doc = hre_svc::Json::parse(std::str::from_utf8(b).unwrap()).unwrap();
                doc.get("leader").and_then(|l| l.as_u64())
            };
            assert_eq!(leader(want.as_bytes()), leader(&req.expected));
        }
    }
}
