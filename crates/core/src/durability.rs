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
//! slower. An older slot opens, the restore cold-starts with a reason
//! naming both versions, and the next boundary writes a base of this
//! build's version.
//!
//! **What the fingerprint pins, the frame does not repeat.** Every
//! frame opens with the saving pipeline's configuration fingerprint,
//! and a restore reads nothing past it unless it equals the restoring
//! pipeline's (see the restore-validation contract below). So the frame
//! carries no copy of what the fingerprint covers: the ledger section
//! holds no job-runtime config (a restore builds the ledger under the
//! restoring pipeline's), the ledger section is present exactly when the
//! pipeline has a job tracker (no presence flag), and the decide-state
//! section holds no trait width (the fingerprint's trait names fix it).
//!
//! # Entry records
//!
//! The observation section holds one entry per listed table (a delta:
//! per changed position). The entries go out as one *entry block*, laid
//! out for a restore that reads them at memory speed:
//!
//! 1. **Records**: one record of fixed width per entry, 83 bytes — a tag
//!    (0 `Missing`, 1 `Table`, 2 `Partitions`), the eight `u64`
//!    counters, the last-write flag and value (zero when absent), the
//!    write-frequency bits, and a presence byte naming the variable parts
//!    the entry has (a quota, histogram buckets, custom metrics). A
//!    `Missing` or `Partitions` record is zero past its tag. A restore
//!    reads all records with one bounds check and builds each entry from
//!    its record in place; a base position a delta replaces is passed by
//!    stride.
//! 2. **Custom names**: every custom-metric name the block's stats use,
//!    once each.
//! 3. **Side section**: for each entry with variable parts, in record
//!    order, the parts its presence byte names — the quota's two words,
//!    the histogram buckets, the custom metrics as `(name index, value)`
//!    pairs — or, for `Partitions`, the partition count and per partition
//!    its label, an 82-byte stats record (a record without its tag) and
//!    that record's parts. A fleet whose stats carry none of these parts
//!    writes an empty side section.
//!
//! Every check of the per-field form stays: flags are 0 or 1 (and an
//! absent value is zero), a presence byte names only known parts and a
//! named part is never empty, counts fit the bytes left, name indexes are
//! in range and no name repeats within a record, delta positions ascend
//! and lie in the base's listing, and the whole payload is consumed.
//!
//! # Bases and deltas
//!
//! A boundary saves one of two frames into the dual-slot
//! [`SnapshotStore`](lakesim_storage::SnapshotStore):
//!
//! * a **base** ([`SNAPSHOT_KIND`]): the configuration fingerprint, the
//!   [`SnapshotContext`], the observation with its listing, entries and
//!   quarantine records, the pending dirty uids, the decide state, the job
//!   ledger (with a job tracker) and the feedback calibration — the whole
//!   retained state;
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
//! listing, a rebuilt layout and a configuration edit each force a base.
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
//! A restore resumes the chain rather than starting a new one. The base
//! it read stays the base: its store sequence number, frame checksum and
//! length, the restored listing `Arc`, the restored decide state's
//! layout and the current configuration epoch are what a delta over it
//! must share, and what changed since it starts as what the restored
//! delta carried — its listing positions, and every score if its scores
//! went whole. A runtime restarted after every boundary therefore folds
//! on the same rule as one that never stops.
//!
//! **Validity** is decided at one point, the store's load: a delta is
//! returned only together with the intact base it names, by sequence
//! number and slot checksum, in the other slot. The restore checks the
//! pairing again against the base frame's own checksum. Because a base
//! never overwrites the base the newest delta depends on, a torn write —
//! acknowledged or not — costs at most the base's boundary: the restore
//! falls back to the base, and the journal replays from the base's
//! watermark, which the journal still holds. That holds for a delta
//! written after a restore too: its base is the one the restore read, and
//! the journal is never truncated, so a torn post-restore delta falls
//! back to that base and replays from its watermark.
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
//!   filter/trait names, scheduler name, job-runtime config or its
//!   absence) — restoring into a differently-configured pipeline would
//!   misread retained rows;
//! * the observation chain is internally consistent: the decide state is
//!   persisted only while live for the snapshotted observation — last
//!   patched against exactly it, in the current config epoch — and a
//!   restore lays its slots out from the restored observation;
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
pub const SNAPSHOT_VERSION: u32 = 6;

/// What a durable runtime keeps about its last base, saved or restored:
/// the identities a delta over it must share, and what changed since it
/// (see the module docs' fold rule).
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
/// direct appends and [`JournalingExecutor`] (also behind
/// [`ReplayExecutor`]) all go through it.
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

/// Journals one delivered outcome: the one writer of
/// [`JournalEvent::Settled`] records, for polled and pushed outcomes
/// alike.
pub(crate) fn append_settled(
    journal: &mut Journal,
    telemetry: &crate::telemetry::TelemetrySink,
    outcome: &JobOutcome,
) {
    let event = JournalEvent::Settled {
        outcome: outcome.clone(),
    };
    append_counted(journal, telemetry, &event.encode());
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
            append_settled(self.journal, &self.telemetry, outcome);
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
/// The served prefix sits in front of a [`JournalingExecutor`] over the
/// same executor and journal, which does everything else: once the
/// prefix is exhausted, submissions pass through live and are journaled
/// like any other, and polls always pass through to the (rewound) inner
/// executor, whose outcome stream re-delivers the original batches;
/// re-delivered outcomes are re-journaled, which is safe because journal
/// replay is idempotent.
pub struct ReplayExecutor<'a, E> {
    pending: VecDeque<(CandidateId, u64, ExecutionResult)>,
    live: JournalingExecutor<'a, E>,
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
            pending,
            live: JournalingExecutor::new(inner, journal),
        }
    }

    /// Counts journal appends/bytes into `sink` (builder style).
    pub fn with_telemetry(mut self, sink: crate::telemetry::TelemetrySink) -> Self {
        self.live.telemetry = sink;
        self
    }

    /// Journaled submissions not yet served back.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

impl<E: CompactionExecutor> CompactionExecutor for ReplayExecutor<'_, E> {
    fn execute(&mut self, c: &Candidate, p: &Prediction, now_ms: u64) -> ExecutionResult {
        let Some((id, at_ms, result)) = self.pending.pop_front() else {
            return self.live.execute(c, p, now_ms);
        };
        assert!(
            id == c.id && at_ms == now_ms,
            "journal replay diverged: journaled submission {id} at {at_ms}ms, \
             re-driven pipeline submitted {} at {now_ms}ms",
            c.id
        );
        result
    }
}

impl<E: TrackedExecutor> TrackedExecutor for ReplayExecutor<'_, E> {
    fn poll(&mut self, now_ms: u64) -> Vec<JobOutcome> {
        self.live.poll(now_ms)
    }

    fn delivery_cursor(&self) -> u64 {
        self.live.delivery_cursor()
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

/// Bytes of a snapshot stats record: the head, then one presence byte
/// naming the variable parts the side section holds for it
/// ([`HAS_QUOTA`], [`HAS_HISTOGRAM`], [`HAS_CUSTOM`]).
pub(crate) const STATS_RECORD_BYTES: usize = STATS_HEAD_BYTES + 1;

/// Presence bit: the side section holds the record's quota signal.
const HAS_QUOTA: u8 = 1;
/// Presence bit: the side section holds the record's histogram buckets.
const HAS_HISTOGRAM: u8 = 2;
/// Presence bit: the side section holds the record's custom metrics.
const HAS_CUSTOM: u8 = 4;

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

/// Fills `head` (`STATS_HEAD_BYTES` long) with the fixed-width fields of
/// `stats`. The optional last-write is fixed width: flag, then the value,
/// zeroed when absent.
fn write_stats_head(head: &mut [u8], stats: &CandidateStats) {
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
    for (slot, word) in head[..64].chunks_exact_mut(8).zip(words) {
        slot.copy_from_slice(&word.to_le_bytes());
    }
    head[64] = stats.last_write_ms.is_some() as u8;
    head[65..73].copy_from_slice(&stats.last_write_ms.unwrap_or(0).to_le_bytes());
    head[73..81].copy_from_slice(&stats.write_frequency_per_hour.to_bits().to_le_bytes());
}

/// Reads what [`write_stats_head`] wrote, the variable parts left empty.
/// An absent last-write must carry a zero value.
fn read_stats_head(head: &[u8]) -> Result<CandidateStats, CodecError> {
    let last_write = match flag(head[64], "last_write flag")? {
        true => Some(word(head, 65)),
        false if word(head, 65) == 0 => None,
        false => return Err(CodecError::Invalid("last_write value without its flag")),
    };
    Ok(CandidateStats {
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
    })
}

/// Writes `stats` field by field: the journal's and the ledger's form,
/// which a record carries whole.
pub(crate) fn put_stats(enc: &mut Encoder, stats: &CandidateStats) {
    let mut head = [0u8; STATS_HEAD_BYTES];
    write_stats_head(&mut head, stats);
    enc.put_raw(&head);
    match stats.quota {
        Some(q) => {
            enc.put_bool(true);
            enc.put_u64(q.used);
            enc.put_u64(q.total);
        }
        None => enc.put_bool(false),
    }
    put_buckets(enc, &stats.size_histogram);
    enc.put_u64(stats.custom.len() as u64);
    for (name, value) in &stats.custom {
        enc.put_str(name);
        enc.put_f64(*value);
    }
}

pub(crate) fn take_stats(dec: &mut Decoder<'_>) -> Result<CandidateStats, CodecError> {
    let mut stats = read_stats_head(dec.take_raw(STATS_HEAD_BYTES, "stats head")?)?;
    if dec.take_bool("quota present")? {
        stats.quota = Some(take_quota(dec)?);
    }
    stats.size_histogram = take_buckets(dec)?;
    let customs = dec.take_len(16, "custom metrics")?;
    for _ in 0..customs {
        let name = dec.take_str("custom name")?.to_string();
        let value = dec.take_f64("custom value")?;
        stats.custom.insert(name, value);
    }
    Ok(stats)
}

fn take_quota(dec: &mut Decoder<'_>) -> Result<QuotaSignal, CodecError> {
    let quota = dec.take_raw(16, "quota signal")?;
    Ok(QuotaSignal {
        used: word(quota, 0),
        total: word(quota, 8),
    })
}

fn put_buckets(enc: &mut Encoder, buckets: &[SizeBucket]) {
    enc.put_u64(buckets.len() as u64);
    for bucket in buckets {
        enc.put_bool(bucket.upper_bytes.is_some());
        enc.put_u64(bucket.upper_bytes.unwrap_or(0));
        enc.put_u64(bucket.count);
    }
}

/// Reads what [`put_buckets`] wrote, with one bounds check for all of
/// them. An overflow bucket must carry a zero edge.
fn take_buckets(dec: &mut Decoder<'_>) -> Result<Vec<SizeBucket>, CodecError> {
    let buckets = dec.take_len(BUCKET_BYTES, "histogram")?;
    let packed = dec.take_raw(buckets * BUCKET_BYTES, "histogram buckets")?;
    // Collected, not sized up front: vectors of exactly the bucket count
    // made `lake_fleet`'s first round after a restore measurably slower
    // (its stats fetch and the drop of the restored entries).
    packed
        .chunks_exact(BUCKET_BYTES)
        .map(|bucket| {
            let upper = match flag(bucket[0], "bucket edge flag")? {
                true => Some(word(bucket, 1)),
                false if word(bucket, 1) == 0 => None,
                false => return Err(CodecError::Invalid("bucket edge without its flag")),
            };
            Ok(SizeBucket {
                upper_bytes: upper,
                count: word(bucket, 9),
            })
        })
        .collect()
}

/// The custom-metric names of one snapshot entry block, each written
/// once; a record's customs name them by index.
#[derive(Default)]
pub(crate) struct CustomNames<'a> {
    names: Vec<&'a str>,
    index: std::collections::HashMap<&'a str, u32>,
}

impl<'a> CustomNames<'a> {
    /// The index of `name`, interned on first sight.
    fn index_of(&mut self, name: &'a str) -> u32 {
        *self.index.entry(name).or_insert_with(|| {
            self.names.push(name);
            self.names.len() as u32 - 1
        })
    }

    /// Writes the name table.
    pub(crate) fn put(&self, enc: &mut Encoder) {
        enc.put_u64(self.names.len() as u64);
        for name in &self.names {
            enc.put_str(name);
        }
    }

    /// Reads what [`put`](Self::put) wrote, borrowing from the frame.
    pub(crate) fn take(dec: &mut Decoder<'a>) -> Result<Vec<&'a str>, CodecError> {
        (0..dec.take_len(8, "custom names")?)
            .map(|_| dec.take_str("custom name"))
            .collect()
    }
}

/// Fills `record` (`STATS_RECORD_BYTES` long) with `stats`' fixed-width
/// fields and its presence byte, and returns that byte: non-zero when
/// [`put_stats_side`] has parts to write for it.
pub(crate) fn write_stats_record(record: &mut [u8], stats: &CandidateStats) -> u8 {
    write_stats_head(&mut record[..STATS_HEAD_BYTES], stats);
    let presence = (stats.quota.is_some() as u8 * HAS_QUOTA)
        | (!stats.size_histogram.is_empty() as u8 * HAS_HISTOGRAM)
        | (!stats.custom.is_empty() as u8 * HAS_CUSTOM);
    record[STATS_HEAD_BYTES] = presence;
    presence
}

/// Reads what [`write_stats_record`] wrote: the stats with their
/// variable parts empty, and the presence byte naming the parts
/// [`take_stats_side`] must fill in.
#[inline]
pub(crate) fn read_stats_record(record: &[u8]) -> Result<(CandidateStats, u8), CodecError> {
    let presence = record[STATS_HEAD_BYTES];
    if presence > HAS_QUOTA | HAS_HISTOGRAM | HAS_CUSTOM {
        return Err(CodecError::Invalid("stats presence byte"));
    }
    Ok((read_stats_head(record)?, presence))
}

/// Writes the variable parts of `stats` its presence byte names, in the
/// side section: the quota signal, the histogram buckets, and the custom
/// metrics as `(name index, value)` pairs, their names interned into
/// `names`.
pub(crate) fn put_stats_side<'a>(
    enc: &mut Encoder,
    stats: &'a CandidateStats,
    names: &mut CustomNames<'a>,
) {
    if let Some(q) = stats.quota {
        enc.put_u64(q.used);
        enc.put_u64(q.total);
    }
    if !stats.size_histogram.is_empty() {
        put_buckets(enc, &stats.size_histogram);
    }
    if !stats.custom.is_empty() {
        enc.put_u64(stats.custom.len() as u64);
        for (name, value) in &stats.custom {
            enc.put_u32(names.index_of(name));
            enc.put_f64(*value);
        }
    }
}

/// Reads what [`put_stats_side`] wrote for a record with `presence` into
/// `stats`. A part the presence byte names is never empty, and no name
/// repeats within one record.
pub(crate) fn take_stats_side(
    dec: &mut Decoder<'_>,
    stats: &mut CandidateStats,
    presence: u8,
    names: &[&str],
) -> Result<(), CodecError> {
    if presence & HAS_QUOTA != 0 {
        stats.quota = Some(take_quota(dec)?);
    }
    if presence & HAS_HISTOGRAM != 0 {
        stats.size_histogram = take_buckets(dec)?;
        if stats.size_histogram.is_empty() {
            return Err(CodecError::Invalid("histogram present but empty"));
        }
    }
    if presence & HAS_CUSTOM != 0 {
        let customs = dec.take_len(12, "custom metrics")?;
        if customs == 0 {
            return Err(CodecError::Invalid("custom metrics present but empty"));
        }
        for pair in dec
            .take_raw(customs * 12, "custom metrics")?
            .chunks_exact(12)
        {
            let at = u32::from_le_bytes(pair[..4].try_into().unwrap()) as usize;
            let name = names
                .get(at)
                .ok_or(CodecError::Invalid("custom name index out of bounds"))?;
            let value = f64::from_bits(word(pair, 4));
            if stats.custom.insert(name.to_string(), value).is_some() {
                return Err(CodecError::Invalid("custom metric repeated"));
            }
        }
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
