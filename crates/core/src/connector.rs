//! Connector traits: AutoComp's only window onto a concrete lake.
//!
//! NFR3 (cross-platform compatibility): "AutoComp can interface with
//! different catalogs or LSTs through connectors that feed data into the
//! system according to a consistent data model." These traits *are* that
//! consistent data model: one observation trait and one action trait.
//!
//! # Observing through [`LakeConnector`]
//!
//! Implementors provide the per-table read primitives (`list_tables` +
//! `*_stats`, and optionally a change cursor, a changelog and a listing
//! epoch). They are the whole data model: a connector does not observe.
//! [`FleetObserver::observe`] is the one way to observe; its driver
//! reads the primitives through `&dyn LakeConnector`, in listing order,
//! and adds incremental (dirty-set) reuse whenever the connector
//! reports a [`ChangeCursor`].
//!
//! Cycles consume connectors through the [`FleetObservation`] values
//! the observer keeps — built once per cycle and consumed by index,
//! which is what lets the OODA cadence survive 100K-table fleets
//! (§6–§7).
//!
//! [`FleetObserver::observe`]: crate::observe::FleetObserver::observe
//! [`FleetObservation`]: crate::observe::FleetObservation
//!
//! # The fallible `try_*` surface
//!
//! Production metastores time out, throttle, and lose sessions; an
//! always-on scheduler must survive its inputs failing. Every read
//! primitive therefore has a fallible twin (`try_list_tables`,
//! `try_table_stats`, `try_partition_stats`, `try_snapshot_stats`,
//! `try_changes_since`) returning `Result<_, `[`ObserveFault`]`>`. The
//! defaults delegate to the infallible methods, so existing connectors
//! compile unchanged and never fault; connectors backed by real
//! networks override the `try_*` twins and report faults structurally.
//! The observe driver consumes only the `try_*` surface and degrades
//! per the recovery policy documented in
//! [`crate::observe`] — retry with capped-exponential backoff for
//! listing/changelog faults, carry-forward + quarantine for per-table
//! stats faults — instead of panicking or silently corrupting fleet
//! state.
//!
//! The `Option`/`Result` split is deliberate and load-bearing:
//! `Ok(None)` still means *the table vanished* (a real state change —
//! the table drops out of candidates exactly as before), while
//! `Err(fault)` means *the read failed* (the table's last known state
//! is carried forward). Faults never masquerade as drops.

use std::fmt;
use std::sync::Arc;

use crate::candidate::{Candidate, TableRef};
use crate::observe::ChangeCursor;
use crate::stats::CandidateStats;

/// Why a connector read failed, classified for the observe driver's
/// recovery policy: [`Transient`](Self::Transient) faults are retried
/// (listing/changelog) or carried forward with quarantine (per-table
/// stats); [`Permanent`](Self::Permanent) faults skip the retry budget
/// and degrade immediately — no string matching involved. The detail is
/// a shared `Arc<str>` so connectors can reuse one allocation per fault
/// site across a whole storm of failures (the [`ExecutionError`] idiom,
/// applied to the read side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObserveFault {
    /// Likely to succeed if re-read later: a catalog timeout, a
    /// throttled stats endpoint, a dropped session.
    Transient(Arc<str>),
    /// Re-reading cannot help until something external changes: an
    /// authorization revocation, a decommissioned endpoint, a
    /// structurally invalid response.
    Permanent(Arc<str>),
}

impl ObserveFault {
    /// A transient (retryable) fault.
    pub fn transient(detail: impl Into<Arc<str>>) -> Self {
        ObserveFault::Transient(detail.into())
    }

    /// A permanent (non-retryable) fault.
    pub fn permanent(detail: impl Into<Arc<str>>) -> Self {
        ObserveFault::Permanent(detail.into())
    }

    /// Whether the observe driver may retry this read.
    pub fn is_transient(&self) -> bool {
        matches!(self, ObserveFault::Transient(_))
    }

    /// Human-readable detail.
    pub fn detail(&self) -> &str {
        match self {
            ObserveFault::Transient(d) | ObserveFault::Permanent(d) => d,
        }
    }
}

impl fmt::Display for ObserveFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObserveFault::Transient(d) => write!(f, "transient: {d}"),
            ObserveFault::Permanent(d) => write!(f, "permanent: {d}"),
        }
    }
}

/// Read-side connector: lists tables and produces candidate statistics
/// one table at a time.
pub trait LakeConnector {
    /// All tables AutoComp may consider, in a deterministic order.
    fn list_tables(&self) -> Vec<TableRef>;

    /// Table-scope statistics; `None` if the table vanished.
    fn table_stats(&self, table_uid: u64) -> Option<CandidateStats>;

    /// Per-partition statistics for a partitioned table, keyed by an
    /// opaque partition label the connector can map back. Empty for
    /// unpartitioned tables.
    fn partition_stats(&self, table_uid: u64) -> Vec<(String, CandidateStats)>;

    /// Statistics restricted to data written within `window_ms` of now —
    /// the snapshot scope of §4.1. Default: unsupported.
    fn snapshot_stats(&self, _table_uid: u64, _window_ms: u64) -> Option<CandidateStats> {
        None
    }

    /// Current position in the lake's change stream, recorded on each
    /// observation so the next cycle can ask for the delta. Default:
    /// `None` (no changelog; every observe is a full fetch).
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        None
    }

    /// Monotone-ish epoch of the table *listing* (which tables exist and
    /// their descriptor flags): any create, drop, rename, or policy edit
    /// must change it. When a connector reports one and it is unchanged
    /// since the prior observation, the observe driver shares the prior
    /// listing (one `Arc` bump) instead of re-materializing every
    /// [`TableRef`] — at 100K tables the listing clone alone is a
    /// measurable slice of an incremental observe. Default: `None`
    /// (unknown; every observe re-lists).
    fn listing_epoch(&self) -> Option<u64> {
        None
    }

    /// Uids of tables written at or after `cursor`. `None` means the
    /// connector cannot answer (changelog unsupported, or the cursor
    /// predates its retention) and the caller must fall back to a full
    /// observe. Default: `None`.
    fn changes_since(&self, _cursor: ChangeCursor) -> Option<Vec<u64>> {
        None
    }

    /// Fallible listing. Default: delegates to
    /// [`list_tables`](Self::list_tables) and never faults. Connectors
    /// over real catalogs override this to report listing failures
    /// structurally; the observe driver retries transient faults with
    /// capped-exponential backoff and then falls back to the prior
    /// listing (degraded) rather than failing the round.
    fn try_list_tables(&self) -> Result<Vec<TableRef>, ObserveFault> {
        Ok(self.list_tables())
    }

    /// Fallible table-scope stats. `Ok(None)` still means *vanished*
    /// (the table drops out of candidates); `Err` means *the read
    /// failed* (the prior entry is carried forward and the table is
    /// quarantined). Default: delegates to
    /// [`table_stats`](Self::table_stats) and never faults.
    fn try_table_stats(&self, table_uid: u64) -> Result<Option<CandidateStats>, ObserveFault> {
        Ok(self.table_stats(table_uid))
    }

    /// Fallible per-partition stats; same vanish-vs-fault split as
    /// [`try_table_stats`](Self::try_table_stats) with an empty `Vec`
    /// in the vanished/unpartitioned role. Default: delegates to
    /// [`partition_stats`](Self::partition_stats) and never faults.
    #[allow(clippy::type_complexity)]
    fn try_partition_stats(
        &self,
        table_uid: u64,
    ) -> Result<Vec<(String, CandidateStats)>, ObserveFault> {
        Ok(self.partition_stats(table_uid))
    }

    /// Fallible snapshot-window stats. Default: delegates to
    /// [`snapshot_stats`](Self::snapshot_stats) and never faults.
    fn try_snapshot_stats(
        &self,
        table_uid: u64,
        window_ms: u64,
    ) -> Result<Option<CandidateStats>, ObserveFault> {
        Ok(self.snapshot_stats(table_uid, window_ms))
    }

    /// Fallible changelog read. `Ok(None)` still means *cannot answer*
    /// (unsupported, or retention overflow — full observe follows);
    /// `Err` means the changelog endpoint itself failed (retried, then
    /// full observe). Default: delegates to
    /// [`changes_since`](Self::changes_since) and never faults.
    fn try_changes_since(&self, cursor: ChangeCursor) -> Result<Option<Vec<u64>>, ObserveFault> {
        Ok(self.changes_since(cursor))
    }
}

/// Decide-phase prediction attached to an execution request, recorded so
/// the feedback loop can compare prediction vs. outcome (§7).
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted file-count reduction (ΔF).
    pub reduction: i64,
    /// Predicted compute cost (GBHr).
    pub gbhr: f64,
    /// Trigger label for the maintenance log.
    pub trigger: String,
    /// The transformation the rewrite should embed
    /// ([`JobKind::classify`](crate::kind::JobKind::classify)d from the
    /// candidate's observed stats; preserved verbatim across retries).
    pub kind: crate::kind::JobKind,
}

/// Why a submission failed, classified for the job runtime's retry
/// policy: the act-phase tracker retries [`Transient`](Self::Transient)
/// failures with backoff and abandons
/// [`Permanent`](Self::Permanent) ones — no string matching involved.
/// The detail is a shared `Arc<str>` so executors can reuse one
/// allocation per error site across a whole fleet of failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutionError {
    /// Likely to succeed if resubmitted later: a lost optimistic race,
    /// quota pressure while writing outputs, a storage timeout.
    Transient(Arc<str>),
    /// Retrying cannot help: the target vanished, the cluster is
    /// unknown, the plan is structurally invalid.
    Permanent(Arc<str>),
}

impl ExecutionError {
    /// A transient (retryable) error.
    pub fn transient(detail: impl Into<Arc<str>>) -> Self {
        ExecutionError::Transient(detail.into())
    }

    /// A permanent (non-retryable) error.
    pub fn permanent(detail: impl Into<Arc<str>>) -> Self {
        ExecutionError::Permanent(detail.into())
    }

    /// Whether the job runtime may retry this submission.
    pub fn is_transient(&self) -> bool {
        matches!(self, ExecutionError::Transient(_))
    }

    /// Human-readable detail.
    pub fn detail(&self) -> &str {
        match self {
            ExecutionError::Transient(d) | ExecutionError::Permanent(d) => d,
        }
    }
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionError::Transient(d) => write!(f, "transient: {d}"),
            ExecutionError::Permanent(d) => write!(f, "permanent: {d}"),
        }
    }
}

/// Result of asking the platform to execute one compaction job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecutionResult {
    /// Whether a job was actually scheduled (false = nothing to do).
    pub scheduled: bool,
    /// Platform job id, if scheduled.
    pub job_id: Option<u64>,
    /// Cost the job will consume (GBHr), as accounted by the platform.
    pub gbhr: f64,
    /// When the job's commit is expected to land (drives sequential
    /// scheduling of subsequent waves).
    pub commit_due_ms: Option<u64>,
    /// Structured error if scheduling failed; its transient/permanent
    /// classification drives the job runtime's retry decision.
    pub error: Option<ExecutionError>,
}

/// Write-side connector: executes compaction for a candidate.
pub trait CompactionExecutor {
    /// Schedules compaction of `candidate` at `now_ms`. Implementations
    /// plan the rewrite (bin-packing), submit it to their compute layer,
    /// and return scheduling info without blocking on completion.
    fn execute(
        &mut self,
        candidate: &Candidate,
        prediction: &Prediction,
        now_ms: u64,
    ) -> ExecutionResult;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::CandidateId;
    use crate::observe::FleetObserver;
    use crate::scope::ScopeStrategy;

    /// A minimal in-memory connector proving the traits are object-safe
    /// and implementable without any lake at all.
    struct StaticLake {
        tables: Vec<TableRef>,
    }

    impl LakeConnector for StaticLake {
        fn list_tables(&self) -> Vec<TableRef> {
            self.tables.clone()
        }
        fn table_stats(&self, table_uid: u64) -> Option<CandidateStats> {
            self.tables
                .iter()
                .find(|t| t.table_uid == table_uid)
                .map(|_| CandidateStats {
                    file_count: 10,
                    small_file_count: 8,
                    ..CandidateStats::default()
                })
        }
        fn partition_stats(&self, _table_uid: u64) -> Vec<(String, CandidateStats)> {
            Vec::new()
        }
    }

    struct CountingExecutor {
        calls: u32,
    }

    impl CompactionExecutor for CountingExecutor {
        fn execute(
            &mut self,
            _candidate: &Candidate,
            _prediction: &Prediction,
            now_ms: u64,
        ) -> ExecutionResult {
            self.calls += 1;
            ExecutionResult {
                scheduled: true,
                job_id: Some(u64::from(self.calls)),
                gbhr: 1.0,
                commit_due_ms: Some(now_ms + 1000),
                error: None,
            }
        }
    }

    fn one_table_lake() -> StaticLake {
        StaticLake {
            tables: vec![TableRef {
                table_uid: 1,
                database: "db".into(),
                name: "t".into(),
                partitioned: false,
                compaction_enabled: true,
                is_intermediate: false,
            }],
        }
    }

    #[test]
    fn traits_are_object_safe_and_usable() {
        let lake = one_table_lake();
        let dyn_lake: &dyn LakeConnector = &lake;
        assert_eq!(dyn_lake.list_tables().len(), 1);
        assert!(dyn_lake.table_stats(1).is_some());
        assert!(dyn_lake.table_stats(2).is_none());
        assert!(dyn_lake.snapshot_stats(1, 1000).is_none());
        assert!(dyn_lake.fleet_cursor().is_none());
        assert!(dyn_lake.changes_since(ChangeCursor(0)).is_none());

        let mut exec = CountingExecutor { calls: 0 };
        let table = &dyn_lake.list_tables()[0];
        let cand = Candidate::new(
            CandidateId::table(1),
            table,
            dyn_lake.table_stats(1).unwrap(),
        );
        let result = exec.execute(
            &cand,
            &Prediction {
                reduction: 7,
                gbhr: 0.5,
                trigger: "test".into(),
                kind: crate::kind::JobKind::Merge,
            },
            0,
        );
        assert!(result.scheduled);
        assert_eq!(result.commit_due_ms, Some(1000));
        assert_eq!(exec.calls, 1);
    }

    /// The observer reads a connector through a trait object; a clone of
    /// its last observation, held across the next pass, is a value.
    #[test]
    fn observe_works_through_a_trait_object() {
        let lake = one_table_lake();
        let dyn_lake: &dyn LakeConnector = &lake;
        let mut observer = FleetObserver::new();
        let held = observer.observe(dyn_lake, ScopeStrategy::Table).clone();
        assert_eq!(held.table_count(), 1);
        assert_eq!(held.candidate_count(), 1);
        assert!(held.cursor().is_none());
        // No changelog: the next pass fetches the table again.
        let next = observer.observe(dyn_lake, ScopeStrategy::Table);
        assert_eq!((next.fetched_tables(), next), (1, &held));
        assert_eq!(held.fetched_tables(), 1);
    }

    #[test]
    fn try_defaults_delegate_and_never_fault() {
        let lake = one_table_lake();
        let dyn_lake: &dyn LakeConnector = &lake;
        assert_eq!(dyn_lake.try_list_tables().unwrap().len(), 1);
        // Vanish stays Ok(None): the Option is the state signal, the
        // Result is the fault signal.
        assert!(dyn_lake.try_table_stats(1).unwrap().is_some());
        assert!(dyn_lake.try_table_stats(2).unwrap().is_none());
        assert!(dyn_lake.try_partition_stats(1).unwrap().is_empty());
        assert!(dyn_lake.try_snapshot_stats(1, 1000).unwrap().is_none());
        assert!(dyn_lake
            .try_changes_since(ChangeCursor(0))
            .unwrap()
            .is_none());
    }

    #[test]
    fn observe_fault_classifies_and_displays() {
        let t = ObserveFault::transient("catalog timeout");
        let p = ObserveFault::permanent("auth revoked");
        assert!(t.is_transient());
        assert!(!p.is_transient());
        assert_eq!(t.detail(), "catalog timeout");
        assert_eq!(format!("{t}"), "transient: catalog timeout");
        assert_eq!(format!("{p}"), "permanent: auth revoked");
        // Shared Arc<str> detail: clones are refcount bumps.
        let t2 = t.clone();
        assert_eq!(t, t2);
    }
}
