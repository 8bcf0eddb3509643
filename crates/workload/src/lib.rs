//! # lakesim-workload
//!
//! Workload generators reproducing the paper's experimental inputs:
//!
//! * [`tpch`] — a TPC-H-like multi-table database (the CAB schemas of §6:
//!   `lineitem` partitioned monthly by shipdate, `orders` unpartitioned),
//!   with read/write query generators.
//! * [`cab`] — CAB-like query streams: "constant demand with sinusoidal
//!   variations (e.g., dashboards), short bursts (e.g., interactive
//!   queries), large bursts (e.g., daily maintenance jobs), and
//!   predictable workloads triggered at specific times (e.g., hourly
//!   jobs)" (§6).
//! * [`tpcds`] — TPC-DS-like phases for Fig. 3 and the §6.3 LST-Bench
//!   workloads WP1/WP3, including the 3% data-maintenance modification.
//! * [`ingestion`] — the Gobblin-like managed raw-ingestion pipeline of
//!   §2 (5-minute checkpoints rolled up hourly into ~512MB files) for
//!   Fig. 1's "raw" distribution.
//! * [`fleet`] — a LinkedIn-fleet synthesizer (databases, tenant quotas,
//!   table archetypes, daily write cycles) behind Figs. 2, 10 and 11.
//! * [`scenarios`] — the adversarial design-space matrix: seeded
//!   commit-storm / flash-crowd / quota-churn / mass-delete /
//!   mixed-transform generators runnable through both the polled driver
//!   and the event-driven runtime with bit-identical outcomes.
//! * [`driver`] — the deterministic stream runner interleaving scheduled
//!   queries with periodic callbacks (where the bench layer plugs in
//!   AutoComp cycles) and commit draining.

#![warn(missing_docs)]

pub mod cab;
pub mod driver;
pub mod fleet;
pub mod ingestion;
pub mod scenarios;
pub mod tpcds;
pub mod tpch;

pub use cab::{CabConfig, CabWorkload, StreamPattern};
pub use driver::{run_stream, OpSpec, ScheduledOp, StreamStats};
pub use fleet::{Archetype, Fleet, FleetConfig};
pub use ingestion::{sample_raw_sizes, sample_user_derived_sizes, RawPipeline, RawPipelineConfig};
pub use scenarios::{
    policy_name, run_scenario_event, run_scenario_polled, scenario_policy, Scenario,
    ScenarioOutcome,
};
pub use tpcds::{TpcdsConfig, TpcdsDatabase};
pub use tpch::{TpchConfig, TpchDatabase};
