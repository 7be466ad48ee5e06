//! One module per experiment; each exposes `report() -> String`.

pub mod e01_lower_bound;
pub mod e02_impossibility;
pub mod e03_ak_bounds;
pub mod e04_bk_bounds;
pub mod e05_figure1;
pub mod e06_state_diagram;
pub mod e07_tradeoff;
pub mod e08_baselines;
pub mod e09_ring122;
pub mod e10_schedulers;
pub mod e11_runtime;
pub mod e12_words;
pub mod e13_faults;
pub mod e14_knowledge;
pub mod e15_distribution;
pub mod e16_model_check;
pub mod e17_scale;
pub mod e18_net;
pub mod e19_svc;
pub mod e20_cluster;
pub mod e21_trace;
pub mod e22_perf;
pub mod e23_ctrl;
pub mod e24_dst;
pub mod e25_algos;
pub mod e26_batch;

/// Runs every experiment in order and concatenates the reports — the body
/// of `EXPERIMENTS.md`.
pub fn reproduce_all() -> String {
    let mut out = String::new();
    for (name, f) in all() {
        out.push_str(&format!("\n\n## {name}\n\n"));
        out.push_str(&f());
    }
    out
}

/// A registry entry: experiment title plus its report runner.
pub type Experiment = (&'static str, fn() -> String);

/// The experiment registry: `(title, runner)` in presentation order.
pub fn all() -> Vec<Experiment> {
    vec![
        ("E1 — Lemma 1 / Cor. 2/4: Ω(kn) synchronous lower bound", e01_lower_bound::report),
        ("E2 — Theorem 1 / Cor. 3: impossibility for U* (and A)", e02_impossibility::report),
        ("E3 — Theorem 2: Algorithm Ak (Table 1) bounds", e03_ak_bounds::report),
        ("E4 — Theorems 3–4: Algorithm Bk (Table 2) bounds", e04_bk_bounds::report),
        ("E5 — Figure 1: Bk phase-by-phase on the paper's ring", e05_figure1::report),
        ("E6 — Figure 2: Bk state-diagram conformance", e06_state_diagram::report),
        ("E7 — Abstract: the Ak/Bk time-space trade-off", e07_tradeoff::report),
        ("E8 — §I: baseline comparison on identified rings", e08_baselines::report),
        ("E9 — §I closing remark: the ring (1,2,2)", e09_ring122::report),
        ("E10 — §II model: scheduler robustness / confluence", e10_schedulers::report),
        ("E11 — threaded runtime agreement (substitution check)", e11_runtime::report),
        ("E12 — Lemmas 5–6: word-combinatorics foundations", e12_words::report),
        ("E13 — ablation: the model's link assumptions are necessary", e13_faults::report),
        (
            "E14 — knowledge comparison: bounds on n vs the multiplicity bound k",
            e14_knowledge::report,
        ),
        (
            "E15 — cost distributions: slack of the worst-case bounds on random rings",
            e15_distribution::report,
        ),
        (
            "E16 — exhaustive model checking: safety, deadlock-freedom, confluence",
            e16_model_check::report,
        ),
        ("E17 — scale: asymptotic shapes at n up to 512", e17_scale::report),
        ("E18 — TCP socket runtime agreement and fault recovery", e18_net::report),
        (
            "E19 — election-as-a-service agreement and canonical-rotation cache speedup",
            e19_svc::report,
        ),
        (
            "E20 — cluster scaling by rotation-affinity sharding and kill transparency",
            e20_cluster::report,
        ),
        (
            "E21 — end-to-end tracing: recorder overhead and the failover span tree",
            e21_trace::report,
        ),
        (
            "E22 — engine performance: zero-copy messages, pooled links, parallel sweep",
            e22_perf::report,
        ),
        (
            "E23 — self-hosting control plane: coordinator kill, re-election, fencing",
            e23_ctrl::report,
        ),
        (
            "E24 — whole-stack deterministic simulation: seeded fault sweeps in virtual time",
            e24_dst::report,
        ),
        (
            "E25 — algorithm zoo: every engine on exhaustive catalogs, agreement-gated",
            e25_algos::report,
        ),
        (
            "E26 — batched elections: per-entry byte equality and amortized throughput",
            e26_batch::report,
        ),
    ]
}
