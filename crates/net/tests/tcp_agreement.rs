//! The tentpole claim: running the unmodified algorithms over real TCP
//! sockets — even through a deliberately faulty wire — elects exactly
//! the leader the discrete-event simulator elects, with zero
//! specification violations.

use hre_baselines::ChangRoberts;
use hre_core::{Ak, Bk};
use hre_net::{run_tcp, FaultPolicy, NetOptions, NetReport};
use hre_ring::{generate, RingLabeling};
use hre_sim::{run, Algorithm, ProcessBehavior, RoundRobinSched, RunOptions};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Duration;

fn sample_rings(count: usize, max_n: usize, seed: u64) -> Vec<(RingLabeling, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let n = rng.gen_range(4..=max_n);
            let k = rng.gen_range(1..=4usize);
            if k == 1 {
                // Multiplicity 1 means all-distinct: sample K1 directly,
                // rejection over a small alphabet would almost never hit it.
                (generate::random_k1(n, &mut rng), k)
            } else {
                (generate::random_a_inter_kk(n, k, 4 * n as u64, &mut rng).unwrap(), k)
            }
        })
        .collect()
}

fn agree<A>(algo: &A, ring: &RingLabeling, opts: NetOptions) -> NetReport
where
    A: Algorithm,
    A::Proc: Send + 'static,
    <A::Proc as ProcessBehavior>::Msg: hre_net::WireMessage,
{
    let sim = run(algo, ring, &mut RoundRobinSched::default(), RunOptions::default());
    assert!(sim.clean(), "simulator run not clean on {:?}", ring.labels());
    let net = run_tcp(algo, ring, opts);
    assert!(net.clean(), "TCP run not clean on {:?}: outcomes {:?}", ring.labels(), net.outcomes);
    assert_eq!(net.leader(), sim.leader, "leader mismatch on {:?}", ring.labels());
    assert_eq!(net.leader(), ring.true_leader(), "not the true leader on {:?}", ring.labels());
    net
}

/// ≥20 random `A ∩ Kk` rings (n up to 32, k up to 4): Ak and Bk over a
/// clean TCP wire agree with the simulator on every single one.
#[test]
fn tcp_matches_simulator_on_random_rings() {
    for (i, (ring, k)) in sample_rings(10, 32, 0xA11CE).into_iter().enumerate() {
        let rep = agree(&Ak::new(k), &ring, NetOptions::default());
        assert_eq!(rep.net.total.reconnects, 0, "clean wire reconnected (ring {i})");
        // k is an upper bound on multiplicity, and Bk needs k >= 2.
        agree(&Bk::new(k.max(2)), &ring, NetOptions::default());
    }
}

/// The acceptance fault mix — 20 % drop, duplication, reordering, short
/// delays, and one forced connection reset per link — changes nothing
/// about the outcome, and the metrics prove the wire really was hostile.
#[test]
fn tcp_survives_seeded_faults_with_identical_outcome() {
    let opts = NetOptions {
        faults: FaultPolicy::stress(),
        fault_seed: 0xF00D,
        retransmit_timeout: Duration::from_millis(15),
        ..NetOptions::default()
    };
    let mut total_retries = 0;
    let mut total_reconnects = 0;
    for (ring, k) in sample_rings(5, 10, 0xBEEF) {
        let rep = agree(&Ak::new(k), &ring, opts);
        total_retries += rep.net.total.frames_retried;
        total_reconnects += rep.net.total.reconnects;
        assert!(rep.net.total.faults_injected > 0, "injector never fired");
    }
    assert!(total_retries > 0, "faulted runs should have retransmitted");
    assert!(total_reconnects > 0, "forced resets should have caused reconnects");
}

/// Bk under the same hostile wire.
#[test]
fn bk_survives_seeded_faults() {
    let opts = NetOptions {
        faults: FaultPolicy::stress(),
        fault_seed: 0xCAFE,
        retransmit_timeout: Duration::from_millis(15),
        ..NetOptions::default()
    };
    for (ring, k) in sample_rings(3, 8, 0xD00D) {
        let rep = agree(&Bk::new(k.max(2)), &ring, opts);
        assert!(rep.net.total.faults_injected > 0);
    }
}

/// A baseline with a different message alphabet crosses the wire too,
/// and the transport ledger is self-consistent.
#[test]
fn baseline_runs_and_metrics_are_sane() {
    let mut rng = StdRng::seed_from_u64(7);
    let ring = generate::random_k1(8, &mut rng);
    let sim = run(&ChangRoberts, &ring, &mut RoundRobinSched::default(), RunOptions::default());
    let rep = run_tcp(&ChangRoberts, &ring, NetOptions::default());
    assert!(rep.clean());
    assert_eq!(rep.leader(), sim.leader);
    // Logical message counts agree between the substrates.
    assert_eq!(rep.messages, sim.metrics.messages);
    // Every logical message crossed the wire as exactly one first
    // transmission, and acks came back for delivered frames.
    assert_eq!(rep.net.total.frames_sent, rep.messages);
    assert!(rep.net.total.acks_sent >= rep.net.total.frames_sent - rep.net.total.frames_rejected);
    assert!(rep.net.total.bytes_on_wire > 0);
    assert!(rep.net.total.rtt.count > 0, "clean wire should collect RTT samples");
    assert_eq!(rep.net.links.len(), ring.n());
}

/// A traced run under the stress mix lands every wire-recovery event in
/// the flight recorder — retransmissions and duplicate/buffered frames,
/// all parented under the caller's span — while an untraced run stays
/// recorder-free.
#[test]
fn traced_run_records_retransmit_and_reassembly_events() {
    use hre_net::run_tcp_traced;
    use hre_runtime::trace::{FlightRecorder, SpanId, Stage};
    use std::sync::Arc;

    let opts = NetOptions {
        faults: FaultPolicy::stress(),
        fault_seed: 0xF00D,
        retransmit_timeout: Duration::from_millis(15),
        ..NetOptions::default()
    };
    let rec = Arc::new(FlightRecorder::new(4096));
    let trace = rec.mint_trace();
    let parent = SpanId(0x42);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let ring = generate::random_a_inter_kk(10, 3, 40, &mut rng).unwrap();
    let rep = run_tcp_traced(&Ak::new(3), &ring, opts, Some((Arc::clone(&rec), trace, parent)));
    assert!(rep.clean(), "traced faulted run must still elect cleanly");
    assert!(rep.net.total.frames_retried > 0, "stress mix should retransmit");

    let spans = rec.trace_spans(trace);
    let retransmits: Vec<_> = spans.iter().filter(|s| s.stage == Stage::Retransmit).collect();
    assert!(!retransmits.is_empty(), "retransmissions must be traced");
    assert!(retransmits.iter().all(|s| s.parent == parent && s.b >= 2), "b is the attempt number");
    if rep.net.total.dup_frames_rx > 0 {
        assert!(
            spans.iter().any(|s| s.stage == Stage::Reassembly && s.b == 1),
            "suppressed duplicates must be traced"
        );
    }
    // Every event sits under the caller's trace; nothing minted its own.
    assert!(spans.iter().all(|s| s.trace == trace && !s.root));

    // The untraced entry point records nothing anywhere.
    let silent = Arc::new(FlightRecorder::new(64));
    let t2 = silent.mint_trace();
    let rep2 = run_tcp(&Ak::new(3), &ring, opts);
    assert!(rep2.clean());
    assert!(silent.trace_spans(t2).is_empty());
}
