//! Shared deterministic async-platform test doubles for the job-runtime
//! suites.
//!
//! [`ScriptedPlatform`] is the one platform model behind both the
//! lifecycle tests (`tests/job_runtime.rs`, formerly `FakePlatform`) and
//! the tracked-parity property harness (`tests/incremental_parity.rs`,
//! formerly `ParityPlatform`): `execute` schedules a job that settles
//! `duration_ms` later, `poll` reports due jobs, and whether a given
//! submission conflicts is decided by a pluggable [`ConflictRule`] —
//! purely as a function of the call sequence, so cold and incremental
//! pipelines driving identical submissions see identical outcomes.

#![allow(dead_code)]

pub mod faults;
pub mod reference;

use std::collections::BTreeMap;

use autocomp::{
    AutoComp, Candidate, CompactionExecutor, CycleInput, CycleReport, ExecutionResult,
    FleetObserver, JobOutcome, JobOutcomeStatus, LakeConnector, Prediction, TrackedExecutor,
};

/// One tracked cycle over a retained observer — the shape every
/// job-runtime suite (and each `ContinuousRuntime` round) drives.
pub fn tracked_cycle(
    pipeline: &mut AutoComp,
    observer: &mut FleetObserver,
    connector: &dyn LakeConnector,
    executor: &mut dyn TrackedExecutor,
    now_ms: u64,
) -> autocomp::Result<CycleReport> {
    pipeline.cycle(CycleInput {
        connector,
        observer,
        executor,
        now_ms,
    })
}

/// The strict bit-level comparison of two cycle reports, shared by every
/// parity / soak / recovery suite: the first difference, described, or
/// `None` when the reports are identical. `CycleReport` has no
/// `PartialEq` by design (it owns `f64` columns, compared here through
/// `to_bits`); the ranked output is walked in full, so lazily generated
/// tails are held to the same bar as eager ones.
pub fn report_difference(a: &CycleReport, b: &CycleReport) -> Option<String> {
    fn differ<T: PartialEq + std::fmt::Debug>(what: &str, a: &T, b: &T) -> Option<String> {
        (a != b).then(|| format!("{what}: {a:?} != {b:?}"))
    }
    let ranked = || {
        a.ranked.iter().zip(b.ranked.iter()).find_map(|(x, y)| {
            differ("rank order", &x.id, &y.id)
                .or_else(|| differ("score bits", &x.score.to_bits(), &y.score.to_bits()))
                .or_else(|| differ("selection", &x.selected, &y.selected))
                .or_else(|| differ("note", &x.note, &y.note))
                .map(|d| format!("{d} (at {})", x.id))
        })
    };
    let gbhr = |r: &CycleReport| r.total_predicted_gbhr.to_bits();
    differ("generated", &a.generated, &b.generated)
        .or_else(|| differ("dropped", &a.dropped, &b.dropped))
        .or_else(|| differ("ranked len", &a.ranked.len(), &b.ranked.len()))
        .or_else(ranked)
        .or_else(|| differ("executed jobs", &a.executed, &b.executed))
        .or_else(|| differ("deferred", &a.deferred, &b.deferred))
        .or_else(|| differ("retried", &a.retried, &b.retried))
        .or_else(|| differ("ledger", &a.ledger, &b.ledger))
        .or_else(|| {
            let total = |r: &CycleReport| r.total_predicted_reduction;
            differ("predicted reduction", &total(a), &total(b))
        })
        .or_else(|| differ("predicted GBHr bits", &gbhr(a), &gbhr(b)))
        .or_else(|| differ("rendered report", &a.to_string(), &b.to_string()))
}

/// When a submission's eventual settle conflicts.
#[derive(Debug, Clone, Default)]
pub enum ConflictRule {
    /// Every job commits.
    #[default]
    Never,
    /// A table's first `count` submissions conflict, later ones succeed
    /// (the lifecycle suites' scripted-conflict shape).
    FirstN(BTreeMap<u64, u64>),
    /// Submission `n` against table `uid` conflicts when
    /// `(uid + n) % modulus == 0` (the parity harness's shape: conflict
    /// retries, suppression windows and settles occur across the fleet
    /// without any per-table scripting).
    UidPlusAttemptModulo(u64),
}

/// Values a successful settle reports.
#[derive(Debug, Clone, Copy)]
pub enum OutcomeModel {
    /// Fixed per-settle values.
    Fixed {
        /// Achieved file-count reduction.
        reduction: i64,
        /// Compute actually consumed.
        gbhr: f64,
    },
    /// Uid-derived values (`6 + uid % 9`, `0.5 + (uid % 4)/4`), so
    /// feedback records differ per table.
    PerUid,
}

/// Deterministic async compaction platform with a pluggable conflict
/// rule: `execute` schedules (job settles `duration_ms` later), `poll`
/// settles due jobs into an append-only outcome log and delivers from a
/// rewindable cursor.
///
/// The log/cursor split models a real platform's outcome feed across a
/// client crash: outcomes are computed exactly once when the job comes
/// due (so redelivery is bit-identical), and
/// [`set_cursor`](Self::set_cursor) rewinds delivery to a
/// snapshot-recorded position so a restored run re-receives everything
/// the crashed run saw but did not durably settle.
#[derive(Clone)]
pub struct ScriptedPlatform {
    duration_ms: u64,
    next_job: u64,
    running: Vec<(u64, u64, u64, u64)>, // (job_id, uid, due_ms, submission #)
    settled: Vec<JobOutcome>,
    cursor: usize,
    submissions: BTreeMap<u64, u64>,
    conflict: ConflictRule,
    outcome: OutcomeModel,
}

impl ScriptedPlatform {
    /// Platform where jobs settle `duration_ms` after submission and
    /// every job succeeds with fixed outcome values (the lifecycle
    /// suites' default; add conflicts with
    /// [`with_conflicts`](Self::with_conflicts)).
    pub fn new(duration_ms: u64) -> Self {
        ScriptedPlatform {
            duration_ms,
            next_job: 0,
            running: Vec::new(),
            settled: Vec::new(),
            cursor: 0,
            submissions: BTreeMap::new(),
            conflict: ConflictRule::Never,
            outcome: OutcomeModel::Fixed {
                reduction: 8,
                gbhr: 1.5,
            },
        }
    }

    /// Outcome-delivery cursor: position in the settled log up to which
    /// [`poll`](TrackedExecutor::poll) has delivered. Record it alongside
    /// a snapshot.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Rewinds (or advances) outcome delivery — the crash-restore half of
    /// the [`cursor`](Self::cursor) contract. Redelivered outcomes are
    /// byte-identical to the original delivery.
    pub fn set_cursor(&mut self, cursor: usize) {
        self.cursor = cursor.min(self.settled.len());
    }

    /// The parity harness's shape: submission `n` against table `uid`
    /// conflicts when `(uid + n) % 3 == 0`, outcomes are uid-derived.
    pub fn parity(duration_ms: u64) -> Self {
        ScriptedPlatform {
            conflict: ConflictRule::UidPlusAttemptModulo(3),
            outcome: OutcomeModel::PerUid,
            ..ScriptedPlatform::new(duration_ms)
        }
    }

    /// Scripts `uid`'s first `count` submissions to conflict (switching
    /// the rule to [`ConflictRule::FirstN`] if needed).
    pub fn with_conflicts(mut self, uid: u64, count: u64) -> Self {
        match &mut self.conflict {
            ConflictRule::FirstN(map) => {
                map.insert(uid, count);
            }
            _ => {
                self.conflict = ConflictRule::FirstN([(uid, count)].into_iter().collect());
            }
        }
        self
    }

    fn conflicted(&self, uid: u64, submission: u64) -> bool {
        match &self.conflict {
            ConflictRule::Never => false,
            ConflictRule::FirstN(map) => submission <= map.get(&uid).copied().unwrap_or(0),
            ConflictRule::UidPlusAttemptModulo(m) => (uid + submission).is_multiple_of(*m),
        }
    }

    fn success_values(&self, uid: u64) -> (i64, f64) {
        match self.outcome {
            OutcomeModel::Fixed { reduction, gbhr } => (reduction, gbhr),
            OutcomeModel::PerUid => (6 + (uid % 9) as i64, 0.5 + (uid % 4) as f64 * 0.25),
        }
    }

    fn conflict_gbhr(&self, uid: u64) -> f64 {
        // Conflicts still burn compute (§2 counts wasted resources).
        match self.outcome {
            OutcomeModel::Fixed { gbhr, .. } => gbhr,
            OutcomeModel::PerUid => 0.5 + (uid % 4) as f64 * 0.25,
        }
    }
}

impl CompactionExecutor for ScriptedPlatform {
    fn execute(&mut self, c: &Candidate, p: &Prediction, now: u64) -> ExecutionResult {
        self.next_job += 1;
        let n = self.submissions.entry(c.id.table_uid).or_insert(0);
        *n += 1;
        let due = now + self.duration_ms;
        self.running.push((self.next_job, c.id.table_uid, due, *n));
        ExecutionResult {
            scheduled: true,
            job_id: Some(self.next_job),
            gbhr: p.gbhr,
            commit_due_ms: Some(due),
            error: None,
        }
    }
}

impl TrackedExecutor for ScriptedPlatform {
    fn poll(&mut self, now: u64) -> Vec<JobOutcome> {
        // Settle newly due jobs into the append-only log exactly once.
        // Submission order implies non-decreasing due times (fixed
        // duration), so the log stays sorted by `finished_at_ms`.
        let (due, rest): (Vec<_>, Vec<_>) = self
            .running
            .drain(..)
            .partition(|(_, _, due, _)| *due <= now);
        self.running = rest;
        for (job_id, uid, due_ms, submission) in due {
            let conflicted = self.conflicted(uid, submission);
            let (reduction, gbhr) = if conflicted {
                (0, self.conflict_gbhr(uid))
            } else {
                self.success_values(uid)
            };
            self.settled.push(JobOutcome {
                job_id,
                table_uid: uid,
                status: if conflicted {
                    JobOutcomeStatus::Conflicted
                } else {
                    JobOutcomeStatus::Succeeded
                },
                finished_at_ms: due_ms,
                actual_reduction: reduction,
                actual_gbhr: gbhr,
            });
        }
        // Deliver the contiguous log prefix due at `now` — after a
        // cursor rewind this replays exactly what the original polls
        // delivered, no more (later-due outcomes stay undelivered when
        // an interrupted cycle is re-driven from its start time).
        let mut end = self.cursor;
        while end < self.settled.len() && self.settled[end].finished_at_ms <= now {
            end += 1;
        }
        let delivered = self.settled[self.cursor..end].to_vec();
        self.cursor = end;
        delivered
    }

    fn delivery_cursor(&self) -> u64 {
        self.cursor as u64
    }
}
