//! Durable snapshot/restore and crash-recovery for the OODA runtime.
//!
//! Every structure behind the O(dirty + k) steady state — the retained
//! [`FleetObservation`](crate::observe::FleetObservation) chain with its
//! quarantine records, the [decide state](crate::decide), the
//! [`JobTracker`](crate::act::JobTracker) ledger and the feedback
//! calibration means — is process-lifetime only without this module: a
//! restart meant a fleet-wide cold re-observe and a ledger that forgot
//! its running jobs (and with them the GBHr charges admission accounting
//! depends on). This module adds two durable artifacts:
//!
//! 1. **Snapshots** ([`crate::pipeline::AutoComp::encode_snapshot`] /
//!    [`restore_snapshot`](crate::pipeline::AutoComp::restore_snapshot)):
//!    a versioned, checksummed binary image of the retained state, taken
//!    at cycle boundaries and stored through the dual-slot
//!    [`SnapshotStore`](lakesim_storage::SnapshotStore) so a torn write
//!    costs one generation, never everything.
//! 2. **A submit/settle journal** ([`JournalEvent`] records appended by
//!    [`JournalingExecutor`] to a [`Journal`]):
//!    the append-only record of act-phase effects *between* snapshots,
//!    which is what lets a restarted runtime either re-drive the
//!    interrupted cycle deterministically ([`ReplayExecutor`]) or
//!    re-adopt in-flight jobs directly
//!    ([`AutoComp::replay_journal`](crate::pipeline::AutoComp::replay_journal)).
//!
//! # Snapshot format versioning and compatibility policy
//!
//! A snapshot frame is sealed (`lakesim_storage::codec`): magic, format
//! version, kind tag, payload length and a trailing
//! [`frame_checksum64`](lakesim_storage::frame_checksum64) over the whole
//! frame. The payload layout is identified by [`SNAPSHOT_VERSION`]; any
//! incompatible layout change bumps it.
//! Readers accept their own version only: a newer snapshot is never
//! misinterpreted by an old binary, and an older one is not migrated.
//! The compatibility posture is *reject and cold-start* — a snapshot is
//! a cache of recoverable state, so discarding it is always safe, only
//! slower. Version 3 replaced the cycle-cache and rank-memo sections with
//! one decide-state section and added the observation's quarantine
//! records. Version 4 added deltas, and shipped with the journal's
//! word-wise record checksum, so no older snapshot is ever paired with a
//! journal this build wrote.
//!
//! # Bases and deltas (version 4)
//!
//! A boundary saves one of two frames into the dual-slot
//! [`SnapshotStore`](lakesim_storage::SnapshotStore):
//!
//! * a **base** ([`SNAPSHOT_KIND`]): the configuration fingerprint, the
//!   [`SnapshotContext`], the observation with its listing, entries and
//!   quarantine records, the pending dirty uids, the decide state, the job
//!   ledger and the feedback calibration — the whole retained state;
//! * a **delta** ([`SNAPSHOT_DELTA_KIND`]): the fingerprint, the checksum
//!   sealing the base frame it patches, the context, the observation's
//!   scope and cursor keys, the entries at every listing position changed
//!   since the base (each after its position), the decide-state slots of
//!   those positions (verdict, trait row, score), every score instead
//!   when a rank pass re-scored the fleet since the base, and whole: the
//!   quarantine records, the pending dirty uids, the selection, the live
//!   slots, the ledger and the feedback.
//!
//! A delta is cumulative: it patches its base, never another delta, so a
//! restore reads one base and at most one delta. The store keeps them in
//! its two slots and hands [`restore_snapshot`](crate::pipeline::AutoComp::restore_snapshot)
//! the base frame followed by the delta frame; the restore decodes the
//! base, then applies the delta. A delta is written only over the base's
//! own listing `Arc`, decide-state layout and configuration epoch; a new
//! listing, a rebuilt layout, a configuration edit, and the first
//! boundary after a restore each force a base.
//!
//! **Fold rule.** A boundary writes a base when the delta it would write
//! is estimated to exceed a quarter of the last base's bytes, and a delta
//! otherwise. The estimate is taken from counts before anything is
//! encoded: each changed listing position costs the base's mean bytes per
//! table (which includes the listing record a delta never carries, so the
//! estimate runs high), plus eight bytes per slot when the scores go
//! whole. The sections a delta holds whole (ledger, feedback, selection,
//! quarantine) are left out: they are kilobytes beside a fleet-scale
//! base. Two bounds follow, one per side:
//!
//! 1. *Restore reads at most about 1.25× a base*: the base plus a delta
//!    of at most a quarter of it.
//! 2. *Bytes written stay close to the best fixed fold period.* With a
//!    base of `B` bytes and `d` bytes of change per boundary, folding
//!    every `P` boundaries writes `B/P + d(P−1)/2` per boundary, least at
//!    `P* = √(2B/d)`. This rule folds after `⌊B/(4d)⌋` deltas. At
//!    `B/d = 15` (a 15 MB base and ~1 MB of change per boundary) the
//!    best fixed period is 5–6 boundaries, the rule folds every 4, and
//!    it writes 5 % more than the best period would; for any `B/d` from
//!    8 to 100 it writes at most 1.2× as much. Change that overlaps
//!    across boundaries — the same hot tables rewritten — grows
//!    the cumulative delta sub-linearly and only lengthens the period. A
//!    fleet that changes half its tables per boundary exceeds the quarter
//!    at once, so every boundary there is a base, as before deltas.
//!
//! **Validity** is decided at one point, the store's load: a delta is
//! returned only together with the intact base it names, by sequence
//! number and slot checksum, in the other slot. The restore checks the
//! pairing again against the base frame's own checksum. Because a base
//! never overwrites the base the newest delta depends on, a torn write —
//! acknowledged or not — costs at most the base's boundary: the restore
//! falls back to the base, and the journal replays from the base's
//! watermark, which the journal still holds.
//!
//! # Restore-validation contract
//!
//! Restoring yields a warm state only when **all** of the following
//! hold; otherwise the pipeline falls back to a verbatim cold start
//! (fresh observer, no decide state, empty ledger) and reports why via
//! [`RecoveryReport::ColdStart`] — it never panics on snapshot bytes and
//! never installs a partially-restored (silently wrong) warm state:
//!
//! * the frame validates: magic, kind, length and checksum match, and
//!   the version is exactly [`SNAPSHOT_VERSION`] — a newer frame is
//!   rejected by the frame reader, an older one by the restore itself,
//!   with a reason naming both versions (a runtime's
//!   [`recover`](crate::runtime::ContinuousRuntime::recover) skips only
//!   the checksum, which the store's slot checksum already covered);
//! * the configuration fingerprint recorded in the snapshot matches the
//!   restoring pipeline (scope, policy, trigger label, calibration flag,
//!   filter/trait names, trait width, job-runtime config) — restoring
//!   into a differently-configured pipeline would misread retained rows;
//! * the cursor chain is internally consistent: the decide state is
//!   persisted only while live for the snapshotted observation — patched
//!   at its change cursor, over literally its listing, in the current
//!   config epoch — and a restore lays its slots out from the restored
//!   observation;
//! * a delta, when one follows the base, names that base frame's
//!   checksum, covers the base's listing (same table count, positions in
//!   range and ascending) and keeps the slot count of every table it
//!   replaces, so the base's decide-state layout still holds;
//! * every structural invariant re-derivable from the payload holds
//!   (entry counts match table counts, the decide state's slot count
//!   matches the observation's candidates, every reason index and slot
//!   is in bounds, …) — checked during decode, before anything is
//!   installed.
//!
//! Partially-degraded restores are possible in one direction only:
//! state that is *individually* absent or stale (e.g. a decide state that
//! was not persisted because its epoch had already been invalidated) is
//! dropped while the rest restores warm. Nothing is ever restored
//! *wrong*: the property test in `tests/crash_recovery.rs` truncates
//! and bit-flips valid snapshots at arbitrary offsets and asserts the
//! outcome is always either a faithful warm restore or a clean
//! [`RecoveryReport::ColdStart`].
//!
//! # Crash-recovery protocol
//!
//! The intended write discipline (exercised end-to-end by the
//! crash-restart soak): snapshot at every cycle boundary with a
//! [`SnapshotContext`] recording the executor's outcome-delivery cursor
//! and the journal watermark; journal every submit/settle in between.
//! After a crash, load the newest valid snapshot, rebuild the pipeline
//! with identical configuration, `restore_snapshot`, then either
//!
//! * **rewind + re-drive** (executors whose outcome stream can seek,
//!   e.g. the lakesim maintenance log): rewind the executor's delivery
//!   cursor to the snapshot's value and re-run the interrupted cycle
//!   through a [`ReplayExecutor`], which serves the journaled
//!   [`ExecutionResult`]s for the already-submitted prefix (the platform
//!   already owns those jobs — they must not be double-submitted) and
//!   passes through live from there — the resumed run reconverges to
//!   bit-identical [`CycleReport`](crate::pipeline::CycleReport)s; or
//! * **direct replay** (non-rewindable executors):
//!   [`AutoComp::replay_journal`](crate::pipeline::AutoComp::replay_journal)
//!   re-adopts journaled submissions into the ledger and re-applies
//!   journaled settlements idempotently — late outcomes for
//!   lease-evicted jobs settle exactly once, duplicates are dropped by
//!   the ledger's settled-id dedupe, and still-lost jobs are reclaimed
//!   by the existing `job_lease_ms` path.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use lakesim_storage::{CodecError, Decoder, Encoder, Journal};

use crate::act::{JobOutcome, JobOutcomeStatus, TrackedExecutor};
use crate::candidate::{Candidate, CandidateId, ScopeKind, TableRef};
use crate::connector::{CompactionExecutor, ExecutionError, ExecutionResult, Prediction};
use crate::observe::Bits;
use crate::scope::ScopeStrategy;
use crate::stats::{CandidateStats, QuotaSignal, SizeBucket};

/// Frame kind tag of pipeline snapshots.
pub const SNAPSHOT_KIND: u16 = 7;

/// Frame kind tag of pipeline snapshot deltas.
pub const SNAPSHOT_DELTA_KIND: u16 = 8;

/// Newest pipeline-snapshot payload version this build reads and writes,
/// for bases and deltas alike. Bumped on any incompatible layout change;
/// see the module docs for the compatibility policy.
pub const SNAPSHOT_VERSION: u32 = 4;

/// What a durable runtime keeps about its last base: the identities a
/// delta over it must share, and what changed since it (see the module
/// docs' fold rule).
#[derive(Debug)]
pub(crate) struct SinceBase {
    /// Store sequence number of the base.
    pub(crate) seq: u64,
    /// The checksum sealing the base frame: the name a delta gives it.
    pub(crate) check: u64,
    /// Bytes of the base frame.
    pub(crate) bytes: usize,
    /// The base's listing, held so its identity cannot be reused.
    pub(crate) tables: Arc<Vec<TableRef>>,
    /// Layout of the decide state the base holds, if it holds one.
    pub(crate) layout: Option<Arc<[u64]>>,
    /// Configuration epoch the base was taken in.
    pub(crate) epoch: u64,
    /// Listing positions whose entry or decide-state slots changed since
    /// the base.
    pub(crate) changed: Bits,
    /// Whether a rank pass since the base re-scored every slot.
    pub(crate) all_scores: bool,
}

/// What a restore attempt produced.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryReport {
    /// The snapshot validated end-to-end and the warm state was
    /// installed.
    Warm {
        /// Cycle number the snapshot was taken at (from
        /// [`SnapshotContext::cycle`]).
        cycle: u64,
        /// Executor outcome-delivery cursor recorded at snapshot time —
        /// rewind the executor here before re-driving the interrupted
        /// cycle.
        executor_cursor: u64,
        /// Journal record count at snapshot time — replay starts here.
        journal_watermark: u64,
        /// Tables in the restored observation.
        tables: usize,
        /// Jobs re-adopted into the in-flight ledger.
        jobs_in_flight: usize,
        /// Pending retries restored.
        retries_pending: usize,
        /// Whether the decide state restored warm (it is persisted only
        /// when still valid at save time).
        cache_restored: bool,
        /// Whether the decide state restored with a retained selection
        /// for the next cycle to maintain (never without
        /// `cache_restored`).
        memo_restored: bool,
    },
    /// The snapshot was absent, stale, torn, corrupt or mismatched; the
    /// pipeline was left in (or reset to) a verbatim cold-start state.
    ColdStart {
        /// First validation condition that failed.
        reason: String,
    },
}

impl RecoveryReport {
    /// Whether the restore produced a warm state.
    pub fn is_warm(&self) -> bool {
        matches!(self, RecoveryReport::Warm { .. })
    }

    /// The cold-start reason, if any.
    pub fn cold_reason(&self) -> Option<&str> {
        match self {
            RecoveryReport::ColdStart { reason } => Some(reason),
            RecoveryReport::Warm { .. } => None,
        }
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryReport::Warm {
                cycle,
                tables,
                jobs_in_flight,
                retries_pending,
                cache_restored,
                memo_restored,
                ..
            } => write!(
                f,
                "warm restore: cycle={cycle} tables={tables} in-flight={jobs_in_flight} \
                 retries={retries_pending} cache={cache_restored} memo={memo_restored}"
            ),
            RecoveryReport::ColdStart { reason } => write!(f, "cold start: {reason}"),
        }
    }
}

/// Loop-position bookkeeping recorded inside a snapshot, so recovery
/// knows where the durable artifacts stood relative to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotContext {
    /// Cycle number the snapshot was taken after.
    pub cycle: u64,
    /// Executor outcome-delivery cursor at snapshot time (e.g.
    /// `ScriptedPlatform`'s settled-log cursor, or the lakesim
    /// executor's maintenance-log cursor).
    pub executor_cursor: u64,
    /// Journal record count at snapshot time.
    pub journal_watermark: u64,
}

/// One append-only journal record: an act-phase effect that happened
/// after the last snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A submission handed to the platform (journaled whether or not a
    /// job was actually scheduled — the `result` says which).
    Submitted {
        /// The submitted candidate (boxed: it dwarfs the other variants
        /// and journal events travel through `Vec<JournalEvent>`s).
        candidate: Box<Candidate>,
        /// The prediction attached to the submission.
        prediction: Prediction,
        /// Ledger attempt count, when known (the executor-level journal
        /// wrapper records 1; direct replay treats re-adopted jobs
        /// conservatively as first attempts).
        attempts: u32,
        /// What the platform answered.
        result: ExecutionResult,
        /// Submission timestamp.
        now_ms: u64,
    },
    /// An outcome delivered by the platform.
    Settled {
        /// The delivered outcome.
        outcome: JobOutcome,
    },
    /// A cycle boundary committed (diagnostic marker; replay ignores
    /// it, the soak uses it to audit journal/snapshot alignment).
    CycleCommit {
        /// The committed cycle number.
        cycle: u64,
    },
}

const EVENT_SUBMITTED: u8 = 1;
const EVENT_SETTLED: u8 = 2;
const EVENT_CYCLE_COMMIT: u8 = 3;

impl JournalEvent {
    /// Encodes the event as one journal-record payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            JournalEvent::Submitted {
                candidate,
                prediction,
                attempts,
                result,
                now_ms,
            } => {
                enc.put_u8(EVENT_SUBMITTED);
                put_candidate(&mut enc, candidate);
                put_prediction(&mut enc, prediction);
                enc.put_u32(*attempts);
                put_exec_result(&mut enc, result);
                enc.put_u64(*now_ms);
            }
            JournalEvent::Settled { outcome } => {
                enc.put_u8(EVENT_SETTLED);
                put_outcome(&mut enc, outcome);
            }
            JournalEvent::CycleCommit { cycle } => {
                enc.put_u8(EVENT_CYCLE_COMMIT);
                enc.put_u64(*cycle);
            }
        }
        enc.into_bytes()
    }

    /// Decodes one journal-record payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(bytes);
        let event = match dec.take_u8("journal event tag")? {
            EVENT_SUBMITTED => JournalEvent::Submitted {
                candidate: Box::new(take_candidate(&mut dec)?),
                prediction: take_prediction(&mut dec)?,
                attempts: dec.take_u32("attempts")?,
                result: take_exec_result(&mut dec)?,
                now_ms: dec.take_u64("submitted now_ms")?,
            },
            EVENT_SETTLED => JournalEvent::Settled {
                outcome: take_outcome(&mut dec)?,
            },
            EVENT_CYCLE_COMMIT => JournalEvent::CycleCommit {
                cycle: dec.take_u64("committed cycle")?,
            },
            _ => return Err(CodecError::Invalid("journal event tag")),
        };
        dec.finish()?;
        Ok(event)
    }
}

/// What [`AutoComp::replay_journal`](crate::pipeline::AutoComp::replay_journal)
/// did with the replayed records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplaySummary {
    /// Scheduled submissions re-adopted into the in-flight ledger.
    pub readopted: u64,
    /// Settlements applied (including late settles of lease-evicted
    /// jobs).
    pub settled: u64,
    /// Records ignored: duplicates, unscheduled submissions, cycle
    /// markers, or undecodable payloads.
    pub ignored: u64,
}

/// Appends one encoded record to `journal`, counting the append and its
/// byte size into the telemetry registry (no-ops on a disabled sink).
/// The single write path for journal traffic accounting — the runtime's
/// direct appends, [`JournalingExecutor`] and [`ReplayExecutor`] all go
/// through it.
pub(crate) fn append_counted(
    journal: &mut Journal,
    telemetry: &crate::telemetry::TelemetrySink,
    record: &[u8],
) {
    journal.append(record);
    telemetry.counter_add(crate::telemetry::names::DURABILITY_JOURNAL_APPENDS_TOTAL, 1);
    telemetry.counter_add(
        crate::telemetry::names::DURABILITY_JOURNAL_BYTES_TOTAL,
        record.len() as u64,
    );
}

/// Executor adapter that journals every submit and every delivered
/// outcome — the write side of the crash-recovery protocol. Wrap the
/// real executor in this for every cycle between snapshots.
pub struct JournalingExecutor<'a, E> {
    inner: &'a mut E,
    journal: &'a mut Journal,
    telemetry: crate::telemetry::TelemetrySink,
}

impl<'a, E> JournalingExecutor<'a, E> {
    /// Wraps `inner`, appending [`JournalEvent`]s to `journal`.
    pub fn new(inner: &'a mut E, journal: &'a mut Journal) -> Self {
        JournalingExecutor {
            inner,
            journal,
            telemetry: crate::telemetry::TelemetrySink::disabled(),
        }
    }

    /// Counts journal appends/bytes into `sink` (builder style).
    pub fn with_telemetry(mut self, sink: crate::telemetry::TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }
}

impl<E: CompactionExecutor> CompactionExecutor for JournalingExecutor<'_, E> {
    fn execute(&mut self, c: &Candidate, p: &Prediction, now_ms: u64) -> ExecutionResult {
        let result = self.inner.execute(c, p, now_ms);
        append_counted(
            self.journal,
            &self.telemetry,
            &JournalEvent::Submitted {
                candidate: Box::new(c.clone()),
                prediction: p.clone(),
                attempts: 1,
                result: result.clone(),
                now_ms,
            }
            .encode(),
        );
        result
    }
}

impl<E: TrackedExecutor> TrackedExecutor for JournalingExecutor<'_, E> {
    fn poll(&mut self, now_ms: u64) -> Vec<JobOutcome> {
        let outcomes = self.inner.poll(now_ms);
        for outcome in &outcomes {
            append_counted(
                self.journal,
                &self.telemetry,
                &JournalEvent::Settled {
                    outcome: outcome.clone(),
                }
                .encode(),
            );
        }
        outcomes
    }

    fn delivery_cursor(&self) -> u64 {
        self.inner.delivery_cursor()
    }
}

/// Executor adapter for re-driving an interrupted cycle after a crash,
/// for platforms whose outcome stream can be rewound.
///
/// The journaled `Submitted` prefix (everything after the restored
/// snapshot's watermark) is served back **without** re-submitting — the
/// platform already owns those jobs, and double-submitting would burn
/// fresh job ids and break bit-parity with an uninterrupted run. Each
/// served record is verified against the candidate the re-driven
/// pipeline actually submits; a mismatch means the re-run diverged from
/// the journaled run (non-deterministic pipeline or wrong snapshot) and
/// panics with a diagnostic rather than silently corrupting the ledger.
/// Once the prefix is exhausted, submissions pass through live and are
/// journaled like any other. Polls always pass through to the (rewound)
/// inner executor, whose outcome stream re-delivers the original
/// batches; re-delivered outcomes are re-journaled, which is safe
/// because journal replay is idempotent.
pub struct ReplayExecutor<'a, E> {
    inner: &'a mut E,
    journal: &'a mut Journal,
    pending: VecDeque<(CandidateId, u64, ExecutionResult)>,
    telemetry: crate::telemetry::TelemetrySink,
}

impl<'a, E> ReplayExecutor<'a, E> {
    /// Builds a replay adapter over `inner`, serving the `Submitted`
    /// records found in `journal` at or after record `watermark`.
    pub fn new(inner: &'a mut E, journal: &'a mut Journal, watermark: u64) -> Self {
        let mut pending = VecDeque::new();
        for record in journal.iter_from(watermark) {
            if let Ok(JournalEvent::Submitted {
                candidate,
                result,
                now_ms,
                ..
            }) = JournalEvent::decode(record)
            {
                pending.push_back((candidate.id, now_ms, result));
            }
        }
        ReplayExecutor {
            inner,
            journal,
            pending,
            telemetry: crate::telemetry::TelemetrySink::disabled(),
        }
    }

    /// Counts journal appends/bytes into `sink` (builder style).
    pub fn with_telemetry(mut self, sink: crate::telemetry::TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Journaled submissions not yet served back.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

impl<E: CompactionExecutor> CompactionExecutor for ReplayExecutor<'_, E> {
    fn execute(&mut self, c: &Candidate, p: &Prediction, now_ms: u64) -> ExecutionResult {
        if let Some((id, at_ms, result)) = self.pending.pop_front() {
            assert!(
                id == c.id && at_ms == now_ms,
                "journal replay diverged: journaled submission {id} at {at_ms}ms, \
                 re-driven pipeline submitted {} at {now_ms}ms",
                c.id
            );
            return result;
        }
        let result = self.inner.execute(c, p, now_ms);
        append_counted(
            self.journal,
            &self.telemetry,
            &JournalEvent::Submitted {
                candidate: Box::new(c.clone()),
                prediction: p.clone(),
                attempts: 1,
                result: result.clone(),
                now_ms,
            }
            .encode(),
        );
        result
    }
}

impl<E: TrackedExecutor> TrackedExecutor for ReplayExecutor<'_, E> {
    fn poll(&mut self, now_ms: u64) -> Vec<JobOutcome> {
        let outcomes = self.inner.poll(now_ms);
        for outcome in &outcomes {
            append_counted(
                self.journal,
                &self.telemetry,
                &JournalEvent::Settled {
                    outcome: outcome.clone(),
                }
                .encode(),
            );
        }
        outcomes
    }

    fn delivery_cursor(&self) -> u64 {
        self.inner.delivery_cursor()
    }
}

// ---------------------------------------------------------------------
// Shared value codecs for the snapshot and journal payloads. These are
// deliberately exhaustive field-by-field encoders: `f64`s travel as raw
// IEEE-754 bits so restored state is bit-identical to saved state (the
// parity contract the crash soak pins).
// ---------------------------------------------------------------------

pub(crate) fn put_scope(enc: &mut Encoder, scope: ScopeStrategy) {
    match scope {
        ScopeStrategy::Table => enc.put_u8(0),
        ScopeStrategy::Partition => enc.put_u8(1),
        ScopeStrategy::Hybrid => enc.put_u8(2),
        ScopeStrategy::Snapshot { window_ms } => {
            enc.put_u8(3);
            enc.put_u64(window_ms);
        }
    }
}

pub(crate) fn take_scope(dec: &mut Decoder<'_>) -> Result<ScopeStrategy, CodecError> {
    Ok(match dec.take_u8("scope strategy")? {
        0 => ScopeStrategy::Table,
        1 => ScopeStrategy::Partition,
        2 => ScopeStrategy::Hybrid,
        3 => ScopeStrategy::Snapshot {
            window_ms: dec.take_u64("snapshot window")?,
        },
        _ => return Err(CodecError::Invalid("scope strategy tag")),
    })
}

pub(crate) fn put_scope_kind(enc: &mut Encoder, kind: ScopeKind) {
    enc.put_u8(match kind {
        ScopeKind::Table => 0,
        ScopeKind::Partition => 1,
        ScopeKind::Snapshot => 2,
    });
}

pub(crate) fn take_scope_kind(dec: &mut Decoder<'_>) -> Result<ScopeKind, CodecError> {
    Ok(match dec.take_u8("scope kind")? {
        0 => ScopeKind::Table,
        1 => ScopeKind::Partition,
        2 => ScopeKind::Snapshot,
        _ => return Err(CodecError::Invalid("scope kind tag")),
    })
}

/// Bytes of the fixed-layout head of a stats record: eight `u64`
/// counters, the last-write presence flag and value, and the
/// write-frequency bits. Packed so a fleet-scale restore decodes each
/// record's head with one bounds check instead of eleven.
const STATS_HEAD_BYTES: usize = 8 * 8 + 1 + 8 + 8;

/// Bytes per packed histogram bucket: presence flag, upper edge, count.
const BUCKET_BYTES: usize = 1 + 8 + 8;

pub(crate) fn put_stats(enc: &mut Encoder, stats: &CandidateStats) {
    // The head goes out as one block, the mirror of `take_stats`' single
    // read. The optional last-write is fixed width (flag + value, the
    // value zeroed when absent) so the head is always STATS_HEAD_BYTES.
    let mut head = [0u8; STATS_HEAD_BYTES];
    let words = [
        stats.file_count,
        stats.small_file_count,
        stats.small_bytes,
        stats.total_bytes,
        stats.delete_file_count,
        stats.partition_count,
        stats.target_file_size,
        stats.created_at_ms,
    ];
    for (slot, word) in head.chunks_exact_mut(8).zip(words) {
        slot.copy_from_slice(&word.to_le_bytes());
    }
    head[64] = stats.last_write_ms.is_some() as u8;
    head[65..73].copy_from_slice(&stats.last_write_ms.unwrap_or(0).to_le_bytes());
    head[73..81].copy_from_slice(&stats.write_frequency_per_hour.to_bits().to_le_bytes());
    enc.put_raw(&head);
    match stats.quota {
        Some(q) => {
            enc.put_bool(true);
            enc.put_u64(q.used);
            enc.put_u64(q.total);
        }
        None => enc.put_bool(false),
    }
    enc.put_u64(stats.size_histogram.len() as u64);
    for bucket in &stats.size_histogram {
        enc.put_bool(bucket.upper_bytes.is_some());
        enc.put_u64(bucket.upper_bytes.unwrap_or(0));
        enc.put_u64(bucket.count);
    }
    enc.put_u64(stats.custom.len() as u64);
    for (name, value) in &stats.custom {
        enc.put_str(name);
        enc.put_f64(*value);
    }
}

pub(crate) fn take_stats(dec: &mut Decoder<'_>) -> Result<CandidateStats, CodecError> {
    fn word(block: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(block[at..at + 8].try_into().unwrap())
    }
    fn flag(byte: u8, what: &'static str) -> Result<bool, CodecError> {
        match byte {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid(what)),
        }
    }
    let head = dec.take_raw(STATS_HEAD_BYTES, "stats head")?;
    let last_write = flag(head[64], "last_write flag")?.then(|| word(head, 65));
    let mut stats = CandidateStats {
        file_count: word(head, 0),
        small_file_count: word(head, 8),
        small_bytes: word(head, 16),
        total_bytes: word(head, 24),
        delete_file_count: word(head, 32),
        partition_count: word(head, 40),
        target_file_size: word(head, 48),
        created_at_ms: word(head, 56),
        last_write_ms: last_write,
        write_frequency_per_hour: f64::from_bits(word(head, 73)),
        ..CandidateStats::default()
    };
    if dec.take_bool("quota present")? {
        let quota = dec.take_raw(16, "quota signal")?;
        stats.quota = Some(QuotaSignal {
            used: word(quota, 0),
            total: word(quota, 8),
        });
    }
    let buckets = dec.take_len(BUCKET_BYTES, "histogram")?;
    let packed = dec.take_raw(buckets * BUCKET_BYTES, "histogram buckets")?;
    stats.size_histogram = packed
        .chunks_exact(BUCKET_BYTES)
        .map(|bucket| {
            Ok(SizeBucket {
                upper_bytes: flag(bucket[0], "bucket edge flag")?.then(|| word(bucket, 1)),
                count: word(bucket, 9),
            })
        })
        .collect::<Result<_, CodecError>>()?;
    let customs = dec.take_len(16, "custom metrics")?;
    for _ in 0..customs {
        let name = dec.take_str("custom name")?.to_string();
        let value = dec.take_f64("custom value")?;
        stats.custom.insert(name, value);
    }
    Ok(stats)
}

/// Steps over what [`put_stats`] wrote without building it.
pub(crate) fn skip_stats(dec: &mut Decoder<'_>) -> Result<(), CodecError> {
    dec.take_raw(STATS_HEAD_BYTES, "stats head")?;
    if dec.take_bool("quota present")? {
        dec.take_raw(16, "quota signal")?;
    }
    let buckets = dec.take_len(BUCKET_BYTES, "histogram")?;
    dec.take_raw(buckets * BUCKET_BYTES, "histogram buckets")?;
    for _ in 0..dec.take_len(16, "custom metrics")? {
        dec.take_str("custom name")?;
        dec.take_f64("custom value")?;
    }
    Ok(())
}

pub(crate) fn put_candidate_id(enc: &mut Encoder, id: &CandidateId) {
    enc.put_u64(id.table_uid);
    put_scope_kind(enc, id.scope);
    match &id.partition {
        Some(p) => {
            enc.put_bool(true);
            enc.put_str(p);
        }
        None => enc.put_bool(false),
    }
}

pub(crate) fn take_candidate_id(dec: &mut Decoder<'_>) -> Result<CandidateId, CodecError> {
    let table_uid = dec.take_u64("candidate uid")?;
    let scope = take_scope_kind(dec)?;
    let partition = if dec.take_bool("partition present")? {
        Some(dec.take_str("partition label")?.to_string())
    } else {
        None
    };
    Ok(CandidateId {
        table_uid,
        scope,
        partition,
    })
}

pub(crate) fn put_candidate(enc: &mut Encoder, c: &Candidate) {
    put_candidate_id(enc, &c.id);
    enc.put_str(&c.database);
    enc.put_str(&c.table_name);
    enc.put_bool(c.compaction_enabled);
    enc.put_bool(c.is_intermediate);
    put_stats(enc, &c.stats);
}

pub(crate) fn take_candidate(dec: &mut Decoder<'_>) -> Result<Candidate, CodecError> {
    let id = take_candidate_id(dec)?;
    let database: Arc<str> = Arc::from(dec.take_str("candidate database")?);
    let table_name: Arc<str> = Arc::from(dec.take_str("candidate table name")?);
    let compaction_enabled = dec.take_bool("compaction_enabled")?;
    let is_intermediate = dec.take_bool("is_intermediate")?;
    let stats = take_stats(dec)?;
    Ok(Candidate {
        id,
        database,
        table_name,
        compaction_enabled,
        is_intermediate,
        stats,
    })
}

pub(crate) fn put_prediction(enc: &mut Encoder, p: &Prediction) {
    enc.put_i64(p.reduction);
    enc.put_f64(p.gbhr);
    enc.put_str(&p.trigger);
    enc.put_u8(p.kind.code());
}

pub(crate) fn take_prediction(dec: &mut Decoder<'_>) -> Result<Prediction, CodecError> {
    Ok(Prediction {
        reduction: dec.take_i64("predicted reduction")?,
        gbhr: dec.take_f64("predicted gbhr")?,
        trigger: dec.take_str("prediction trigger")?.to_string(),
        kind: crate::kind::JobKind::from_code(dec.take_u8("prediction kind tag")?)
            .ok_or(CodecError::Invalid("prediction kind tag"))?,
    })
}

pub(crate) fn put_exec_result(enc: &mut Encoder, r: &ExecutionResult) {
    enc.put_bool(r.scheduled);
    enc.put_opt_u64(r.job_id);
    enc.put_f64(r.gbhr);
    enc.put_opt_u64(r.commit_due_ms);
    match &r.error {
        None => enc.put_u8(0),
        Some(ExecutionError::Transient(d)) => {
            enc.put_u8(1);
            enc.put_str(d);
        }
        Some(ExecutionError::Permanent(d)) => {
            enc.put_u8(2);
            enc.put_str(d);
        }
    }
}

pub(crate) fn take_exec_result(dec: &mut Decoder<'_>) -> Result<ExecutionResult, CodecError> {
    Ok(ExecutionResult {
        scheduled: dec.take_bool("result scheduled")?,
        job_id: dec.take_opt_u64("result job id")?,
        gbhr: dec.take_f64("result gbhr")?,
        commit_due_ms: dec.take_opt_u64("result commit due")?,
        error: match dec.take_u8("result error tag")? {
            0 => None,
            1 => Some(ExecutionError::transient(dec.take_str("error detail")?)),
            2 => Some(ExecutionError::permanent(dec.take_str("error detail")?)),
            _ => return Err(CodecError::Invalid("execution error tag")),
        },
    })
}

pub(crate) fn put_outcome(enc: &mut Encoder, o: &JobOutcome) {
    enc.put_u64(o.job_id);
    enc.put_u64(o.table_uid);
    enc.put_u8(match o.status {
        JobOutcomeStatus::Succeeded => 0,
        JobOutcomeStatus::Conflicted => 1,
        JobOutcomeStatus::Failed => 2,
    });
    enc.put_u64(o.finished_at_ms);
    enc.put_i64(o.actual_reduction);
    enc.put_f64(o.actual_gbhr);
}

pub(crate) fn take_outcome(dec: &mut Decoder<'_>) -> Result<JobOutcome, CodecError> {
    Ok(JobOutcome {
        job_id: dec.take_u64("outcome job id")?,
        table_uid: dec.take_u64("outcome uid")?,
        status: match dec.take_u8("outcome status")? {
            0 => JobOutcomeStatus::Succeeded,
            1 => JobOutcomeStatus::Conflicted,
            2 => JobOutcomeStatus::Failed,
            _ => return Err(CodecError::Invalid("outcome status tag")),
        },
        finished_at_ms: dec.take_u64("outcome finished_at")?,
        actual_reduction: dec.take_i64("outcome reduction")?,
        actual_gbhr: dec.take_f64("outcome gbhr")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_candidate() -> Candidate {
        Candidate {
            id: CandidateId::partition(9, "(d402)"),
            database: "db_sales".into(),
            table_name: "events".into(),
            compaction_enabled: true,
            is_intermediate: false,
            stats: CandidateStats {
                file_count: 120,
                small_file_count: 80,
                small_bytes: 1 << 20,
                total_bytes: 1 << 24,
                quota: Some(QuotaSignal {
                    used: 10,
                    total: 100,
                }),
                size_histogram: vec![
                    SizeBucket {
                        upper_bytes: Some(1 << 20),
                        count: 80,
                    },
                    SizeBucket {
                        upper_bytes: None,
                        count: 40,
                    },
                ],
                write_frequency_per_hour: 3.25,
                ..CandidateStats::default()
            }
            .with_custom("scan_count_7d", 42.5),
        }
    }

    #[test]
    fn journal_events_round_trip() {
        let events = vec![
            JournalEvent::Submitted {
                candidate: Box::new(sample_candidate()),
                prediction: Prediction {
                    reduction: 64,
                    gbhr: 1.75,
                    trigger: "periodic".into(),
                    kind: crate::kind::JobKind::SortByColumn,
                },
                attempts: 2,
                result: ExecutionResult {
                    scheduled: true,
                    job_id: Some(17),
                    gbhr: 1.75,
                    commit_due_ms: Some(9_000),
                    error: None,
                },
                now_ms: 8_000,
            },
            JournalEvent::Submitted {
                candidate: Box::new(sample_candidate()),
                prediction: Prediction {
                    reduction: 1,
                    gbhr: 0.5,
                    trigger: "hook".into(),
                    kind: crate::kind::JobKind::Merge,
                },
                attempts: 1,
                result: ExecutionResult {
                    scheduled: false,
                    error: Some(ExecutionError::transient("quota pressure")),
                    ..ExecutionResult::default()
                },
                now_ms: 8_100,
            },
            JournalEvent::Settled {
                outcome: JobOutcome {
                    job_id: 17,
                    table_uid: 9,
                    status: JobOutcomeStatus::Conflicted,
                    finished_at_ms: 9_000,
                    actual_reduction: 0,
                    actual_gbhr: 1.75,
                },
            },
            JournalEvent::CycleCommit { cycle: 12 },
        ];
        for event in events {
            let decoded = JournalEvent::decode(&event.encode()).unwrap();
            assert_eq!(decoded, event);
        }
    }

    /// Journal traffic accounting covers the re-drive: after a
    /// [`ReplayExecutor`] serves a journaled submission back, passes one
    /// through live and re-delivers an outcome, the append counters equal
    /// what the journal grew by.
    #[test]
    fn a_re_drive_counts_every_journal_append() {
        use crate::telemetry::{names, MetricKey, TelemetrySink};
        struct Platform;
        impl CompactionExecutor for Platform {
            fn execute(&mut self, _c: &Candidate, p: &Prediction, now_ms: u64) -> ExecutionResult {
                ExecutionResult {
                    scheduled: true,
                    job_id: Some(now_ms),
                    gbhr: p.gbhr,
                    commit_due_ms: Some(now_ms + 1),
                    error: None,
                }
            }
        }
        impl TrackedExecutor for Platform {
            fn poll(&mut self, now_ms: u64) -> Vec<JobOutcome> {
                vec![JobOutcome {
                    job_id: now_ms,
                    table_uid: 9,
                    status: JobOutcomeStatus::Succeeded,
                    finished_at_ms: now_ms,
                    actual_reduction: 3,
                    actual_gbhr: 0.5,
                }]
            }
        }
        let prediction = Prediction {
            reduction: 3,
            gbhr: 0.5,
            trigger: "replay".into(),
            kind: crate::kind::JobKind::Merge,
        };
        let candidate = sample_candidate();
        let mut journal = Journal::new();
        let mut platform = Platform;
        JournalingExecutor::new(&mut platform, &mut journal).execute(&candidate, &prediction, 10);

        let sink = TelemetrySink::new();
        let (records, bytes) = (journal.records(), journal.bytes().len() as u64);
        {
            let mut replay =
                ReplayExecutor::new(&mut platform, &mut journal, 0).with_telemetry(sink.clone());
            replay.execute(&candidate, &prediction, 10);
            assert_eq!(replay.pending(), 0);
            replay.execute(&candidate, &prediction, 20);
            replay.poll(20);
        }
        let counter = |name| {
            sink.registry()
                .unwrap()
                .counter_value(MetricKey::plain(name))
        };
        let appended = journal.records() - records;
        assert_eq!(appended, 2, "one live submission, one re-delivered outcome");
        assert_eq!(counter(names::DURABILITY_JOURNAL_APPENDS_TOTAL), appended);
        assert_eq!(
            counter(names::DURABILITY_JOURNAL_BYTES_TOTAL),
            journal.bytes().len() as u64 - bytes - 12 * appended,
        );
    }

    #[test]
    fn corrupt_journal_events_fail_softly() {
        let event = JournalEvent::CycleCommit { cycle: 3 };
        let bytes = event.encode();
        assert!(JournalEvent::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(JournalEvent::decode(&[9]).is_err());
        assert!(JournalEvent::decode(&[]).is_err());
    }
}
