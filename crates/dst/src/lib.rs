//! # hre-dst — whole-stack deterministic simulation
//!
//! This crate runs the repository's **entire serving path** — the
//! service's worker pool and result cache, the cluster's hash ring,
//! circuit breakers, hedging, and failover, `hre-net`'s retransmit
//! window and in-order reassembly, and the control plane's CRDT
//! membership with `Ak` coordinator elections — inside **virtual
//! time**, against seeded fault plans.
//!
//! The moving parts:
//!
//! - [`ScenarioPlan`] — a seeded, JSON-round-trippable fault timetable
//!   (backend kills, partitions, slow links, flap storms, coordinator
//!   churn).
//! - [`run_plan`] — executes one plan inside a
//!   [`VirtualClock`](hre_runtime::VirtualClock) +
//!   [`SimFabric`](hre_runtime::SimFabric) world, reusing the real
//!   production components, and returns a transcript hash, invariant
//!   violations, and counters.
//! - [`sweep`] — fans instances through the work-stealing runner;
//!   thread-count invariant by construction.
//! - [`minimize`] / [`artifact_json`] / [`parse_artifact`] — shrink a
//!   failing plan to a small reproducer and round-trip it through the
//!   replay artifact format.
//!
//! Determinism contract: a run is a pure function of its plan. No wall
//! clocks, no OS scheduling, no global mutable state feeds the
//! transcript (the election memo caches *values* only), so the same
//! plan yields the same transcript hash on any machine at any
//! parallelism.

#![forbid(unsafe_code)]

pub mod oracle;
pub mod scenario;
pub mod sweep;
pub mod world;

pub use scenario::{FaultSpec, ScenarioKind, ScenarioPlan};
pub use sweep::{artifact_json, minimize, parse_artifact, sweep, Failure, SweepSummary};
pub use world::{run_plan, RunOutcome, RunStats, World, WorldOptions, ROUTER};
