//! # autocomp
//!
//! The paper's primary contribution: **AutoComp**, a framework for
//! automatic, scalable data compaction of log-structured tables,
//! structured as an 'Observe, Orient, Decide, Act' (OODA) loop (§3.3):
//!
//! * **Observe** — one [`observe::FleetObserver::observe`] pass captures
//!   the fleet as a [`observe::FleetObservation`]: table descriptors plus
//!   a standardized statistics layout ([`stats::CandidateStats`], §4.1) at the
//!   configured candidate scope (table / partition / hybrid / snapshot,
//!   FR1), fetched through a platform-agnostic connector trait (NFR3) and
//!   consumed by index. [`scope`] materializes the observation into
//!   candidates.
//! * **Orient** — [`traits`] computes decision *traits* from those
//!   statistics: benefit traits (file-count reduction ΔF, file entropy)
//!   and cost traits (compute cost GBHr), §4.2.
//! * **Decide** — [`rank`] ranks candidates: threshold policies for the
//!   unconstrained scenario, weighted-sum MOOP scalarization with min–max
//!   normalization for the resource-constrained scenario, top-k and
//!   budget-constrained (dynamic-k) selection, and the production
//!   quota-aware weighting `w1 = 0.5 × (1 + Used/Total)` (§4.3, §7).
//! * **Act** — [`schedule`] orders the selected work units (parallel
//!   across tables, sequential within a table, §4.4/§6) and
//!   [`pipeline::AutoComp`] submits them through an
//!   [`act::TrackedExecutor`], whose poll settles finished jobs; a plain
//!   [`connector::CompactionExecutor`] goes through [`act::Untracked`].
//!
//! [`trigger`] provides the two §5 execution modes (periodic and
//! optimize-after-write); [`feedback`] closes the loop with predicted-vs-
//! actual estimator accuracy (§7). Every phase is deterministic and every
//! cycle produces an explainable [`pipeline::CycleReport`] (NFR2).
//!
//! # One observe entry
//!
//! The observe side is one connector trait and one observer (see
//! [`connector`] and [`observe`]): [`connector::LakeConnector`]
//! implementors provide the per-table read primitives, and
//! [`observe::FleetObserver::observe`] — the only way to observe — reads
//! them into a [`observe::FleetObservation`], table by table in listing
//! order.
//!
//! Observations are snapshots that persist across cycles: a connector
//! with a change cursor ([`observe::ChangeCursor`], fed by after-write
//! hooks and executed compactions) lets the observer run
//! **incremental** cycles that re-fetch stats only for tables written
//! since the prior cycle — the §5 optimize-after-write mode stops paying
//! full-fleet observe cost. A one-shot caller passes a fresh observer,
//! whose first pass fetches every table.
//!
//! # The columnar decide path
//!
//! At the paper's fleet scale (§6–§7: ~21K tables growing toward 100K
//! per cycle), framework overhead — not compaction itself — bounds how
//! often the OODA loop can run. The orient/decide hot path is therefore
//! columnar:
//!
//! * [`matrix::TraitMatrix`] interns trait names once per cycle into
//!   dense [`matrix::TraitId`]s and stores all values in one flat
//!   column-major `Vec<f64>`, so normalization, scalarization and cost
//!   lookups are index arithmetic over contiguous columns — no
//!   per-candidate maps, no string-keyed probes, and **zero per-candidate
//!   allocations** in the decide phase.
//! * One [`decide`] state, retained across cycles and indexed by
//!   candidate slot, holds every candidate's filter verdict, its trait
//!   values as the matrix's own columns, and its score. A cycle patches
//!   the slots of fresh tables in place — orient writes their values
//!   straight into the columns, one stats access per candidate, with no
//!   scratch and no transpose. Filter drops, the job ledger's live
//!   tables and NaN trait values (sanitized into dropped candidates
//!   instead of aborting the cycle) leave ranking through a mask, with
//!   no thinning copy.
//! * [`rank::rank_and_select`] replaces the seed's full fleet sort with
//!   partial selection (`select_nth_unstable_by` plus a sort of the
//!   selected head): for n candidates and k selections the decide phase
//!   is **O(n + k log k)**; only the selected set and the report's top
//!   rows ([`rank::RANKED_PREFIX_MIN`]) are materialized in exact rank
//!   order, and budgeted (dynamic-k) policies expand the sorted region
//!   lazily with doubling chunks. Decision notes are a lazy
//!   [`rank::DecisionNote`] enum rendered on `Display`, so the fleet tail
//!   never pays `format!` costs.
//!
//! This crate depends on `std` plus the workspace's `lakesim_storage`
//! codec layer (for the [`durability`] snapshot/journal formats): it
//! talks to a concrete lake purely through the connector traits, which is
//! what lets the same pipeline run against the simulated lake here, or
//! any other LST/catalog (NFR3). [`durability`] makes the retained
//! cross-cycle state (observation chain, decide state, job ledger,
//! calibration) survive a process restart.

#![warn(missing_docs)]

pub mod act;
pub mod candidate;
pub mod connector;
pub mod decide;
pub mod durability;
pub mod error;
pub mod feedback;
pub mod filter;
pub mod kind;
pub mod matrix;
pub mod observe;
pub mod pipeline;
pub mod rank;
pub mod report;
pub mod runtime;
pub mod schedule;
pub mod scope;
pub mod stats;
pub mod telemetry;
pub mod traits;
pub mod trigger;

pub use act::{
    pump_completions, CompletionSink, JobLedgerSummary, JobOutcome, JobOutcomeStatus,
    JobRuntimeConfig, JobTracker, TrackedExecutor, Untracked,
};
pub use candidate::{Candidate, CandidateId, CandidateView, ScopeKind, TableRef};
pub use connector::{
    CompactionExecutor, ExecutionError, ExecutionResult, LakeConnector, ObserveFault, Prediction,
};
pub use decide::CycleCacheStats;
pub use durability::{
    JournalEvent, JournalingExecutor, RecoveryReport, ReplayExecutor, ReplaySummary,
    SnapshotContext,
};
pub use error::AutoCompError;
pub use feedback::{EstimationFeedback, FeedbackRecord};
pub use filter::{
    AlreadyCompactFilter, CandidateFilter, CompactionDisabledFilter, FilterDecision,
    IntermediateTableFilter, MinSizeFilter, RecentWriteActivityFilter, RecentlyCreatedFilter,
};
pub use kind::{JobKind, PARTITION_SKEW_METRIC, SORT_DISORDER_METRIC, TRANSFORMS_ENABLED_METRIC};
pub use matrix::{TraitId, TraitMatrix};
pub use observe::{
    ChangeCursor, DegradeReason, FallbackCause, FleetObservation, FleetObserver, NameInterner,
    ObserveDegradation, Quarantined, TableObservation,
};
pub use pipeline::{AutoComp, AutoCompConfig, CycleInput, CycleReport};
pub use rank::{
    DecisionNote, RankCycleStats, RankSource, RankedEntries, RankedEntry, RankingPolicy,
    TraitWeight, RANKED_PREFIX_MIN,
};
pub use runtime::{
    ContinuousRuntime, FleetHealth, RoundReport, RuntimeConfig, RuntimeEvent, RuntimeStats,
    TriggerCause, STALL_AFTER_STALE_LISTINGS,
};
pub use schedule::{
    AllParallelScheduler, ParallelTablesScheduler, ScheduledJob, Scheduler,
    StrictSequentialScheduler,
};
pub use scope::ScopeStrategy;
pub use stats::{CandidateStats, QuotaSignal, SizeBucket};
pub use telemetry::{
    FleetHealthReport, HistogramSnapshot, Log2Histogram, PhaseSpan, TelemetryRegistry,
    TelemetrySink,
};
pub use traits::{
    ComputeCostGbhr, DeleteDebt, FileCountReduction, FileEntropy, PartitionSkewExcess,
    SortDisorder, TraitComputer, TraitDirection,
};
pub use trigger::{AfterWriteHook, HookAction, HookMode, PeriodicTrigger};

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, AutoCompError>;
