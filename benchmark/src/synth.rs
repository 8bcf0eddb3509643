//! The synthetic lake of the three framework workloads.
//!
//! A re-implementation of `lakesim_workload::sustained`'s private lake:
//! a table's stats are a pure function of `(uid, writes since its last
//! compaction)`, so a stats read costs nanoseconds and the numbers
//! measure the framework, not the lake. Two things differ from that
//! module, both needed by the crash checks: the lake keeps a real
//! changelog (every write and every compaction), so a restored runtime
//! catches up through `changes_since` exactly as it does over lakesim;
//! and the platform counts what its jobs removed and cost.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use crate::drive::{Source, Step};
use crate::seam::{
    synthetic_pipeline, AutoComp, Candidate, CandidateStats, ChangeCursor, CompactionExecutor,
    ExecutionResult, JobOutcome, JobOutcomeStatus, LakeConnector, Prediction, RuntimeConfig,
    RuntimeEvent, TableRef, TelemetrySink, TrackedExecutor, GB, MB,
};

/// Sizes of one synthetic workload.
#[derive(Debug, Clone, Copy)]
pub struct SynthSizes {
    pub tables: usize,
    /// Uniformly random commits per 200 ms simulated tick.
    pub commits_per_tick: u64,
    /// Distinct dirty tables that trip a round.
    pub dirty_watermark: usize,
    /// MOOP top-k.
    pub k: usize,
}

pub const TICK_MS: u64 = 200;
/// Simulated submit → settle time of a compaction job.
const JOB_MS: u64 = 60_000;
/// Staleness backstop of `sustained.rs`; never reached at these rates.
const MAX_STALENESS_MS: u64 = 600_000;

/// SplitMix64: the seeded generator of every benchmark input.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

struct State {
    /// Writes since the last compaction, per table.
    writes: Vec<u32>,
    /// Changelog: uid of every stats change at or after `log_base`.
    log: Vec<u32>,
    log_base: u64,
    files_reduced: i64,
    gbhr_spent: f64,
}

impl State {
    fn touch(&mut self, uid: u64) {
        self.log.push(uid as u32);
    }
}

fn stats_for(uid: u64, writes: u32) -> CandidateStats {
    let w = writes as u64;
    let base = 10 + (uid * 31) % 40;
    let file_count = base + 6 * w;
    let small_file_count = (4 + 6 * w).min(file_count);
    CandidateStats {
        file_count,
        small_file_count,
        small_bytes: small_file_count * 8 * MB,
        total_bytes: file_count * 48 * MB,
        target_file_size: GB / 2,
        ..CandidateStats::default()
    }
}

pub struct SynthLake {
    state: Rc<RefCell<State>>,
}

impl LakeConnector for SynthLake {
    fn list_tables(&self) -> Vec<TableRef> {
        let db: Vec<Arc<str>> = (0..64).map(|d| Arc::from(format!("db{d}"))).collect();
        (0..self.state.borrow().writes.len() as u64)
            .map(|uid| TableRef {
                table_uid: uid,
                database: db[(uid % 64) as usize].clone(),
                name: format!("t{uid}").into(),
                partitioned: false,
                compaction_enabled: true,
                is_intermediate: false,
            })
            .collect()
    }

    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        let writes = *self.state.borrow().writes.get(uid as usize)?;
        Some(stats_for(uid, writes))
    }

    fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
        Vec::new()
    }

    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        let state = self.state.borrow();
        Some(ChangeCursor(state.log_base + state.log.len() as u64))
    }

    fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
        let state = self.state.borrow();
        let from = cursor.0.checked_sub(state.log_base)? as usize;
        Some(state.log.get(from..)?.iter().map(|&u| u as u64).collect())
    }

    fn listing_epoch(&self) -> Option<u64> {
        Some(0)
    }
}

/// The tracked platform: a job settles `JOB_MS` after submission and
/// resets its table's write accumulation. It is the remote system, so it
/// survives a kill of the runtime.
pub struct SynthPlatform {
    state: Rc<RefCell<State>>,
    next_job: u64,
    /// `(job, uid, due, gbhr)` in submission — hence due — order.
    running: VecDeque<(u64, u64, u64, f64)>,
}

impl CompactionExecutor for SynthPlatform {
    fn execute(&mut self, c: &Candidate, p: &Prediction, now_ms: u64) -> ExecutionResult {
        self.next_job += 1;
        let due = now_ms + JOB_MS;
        self.running
            .push_back((self.next_job, c.id.table_uid, due, p.gbhr));
        ExecutionResult {
            scheduled: true,
            job_id: Some(self.next_job),
            gbhr: p.gbhr,
            commit_due_ms: Some(due),
            error: None,
        }
    }
}

impl TrackedExecutor for SynthPlatform {
    fn poll(&mut self, now_ms: u64) -> Vec<JobOutcome> {
        let mut state = self.state.borrow_mut();
        let mut outcomes = Vec::new();
        while let Some(&(job_id, uid, due, gbhr)) = self.running.front() {
            if due > now_ms {
                break;
            }
            self.running.pop_front();
            let before = stats_for(uid, state.writes[uid as usize]).file_count;
            state.writes[uid as usize] = 0;
            state.touch(uid);
            let reduction = before as i64 - stats_for(uid, 0).file_count as i64;
            state.files_reduced += reduction;
            state.gbhr_spent += gbhr;
            outcomes.push(JobOutcome {
                job_id,
                table_uid: uid,
                status: JobOutcomeStatus::Succeeded,
                finished_at_ms: due,
                actual_reduction: reduction,
                actual_gbhr: gbhr,
            });
        }
        outcomes
    }
}

/// The seeded commit stream: per tick, `commits_per_tick` commits to
/// uniformly random tables (each applied to the lake as it is emitted),
/// then a completion pump and a timer heartbeat.
pub struct SynthSource {
    state: Rc<RefCell<State>>,
    sizes: SynthSizes,
    rng: SplitMix64,
    tick: u64,
    emitted: u64,
}

impl Source for SynthSource {
    fn next(&mut self) -> Step {
        let now = self.tick * TICK_MS;
        let per_tick = self.sizes.commits_per_tick;
        let step = match self.emitted {
            n if n < per_tick => {
                let uid = self.rng.below(self.sizes.tables as u64);
                let mut state = self.state.borrow_mut();
                state.writes[uid as usize] += 1;
                state.touch(uid);
                Step::Event(RuntimeEvent::Commit {
                    at_ms: now,
                    table_uid: uid,
                })
            }
            n if n == per_tick => Step::Pump(now),
            n if n == per_tick + 1 => Step::Event(RuntimeEvent::Timer { at_ms: now }),
            _ => {
                self.tick += 1;
                self.emitted = 0;
                return Step::UnitEnd;
            }
        };
        self.emitted += 1;
        step
    }

    fn now_ms(&self) -> u64 {
        self.tick * TICK_MS
    }

    fn pipeline(&self, sink: TelemetrySink) -> AutoComp {
        synthetic_pipeline(self.sizes.k, sink)
    }

    fn runtime_config(&self) -> RuntimeConfig {
        crate::seam::runtime_config(self.sizes.dirty_watermark, Some(MAX_STALENESS_MS))
    }

    /// The newest snapshot holds the current change cursor, and no
    /// restart reads behind the newest snapshot: drop the log before it.
    fn on_snapshot(&mut self) {
        let mut state = self.state.borrow_mut();
        state.log_base += state.log.len() as u64;
        state.log.clear();
    }

    fn quality(&self) -> (f64, f64, f64) {
        let state = self.state.borrow();
        let (mut small, mut all) = (0u64, 0u64);
        for (uid, &writes) in state.writes.iter().enumerate() {
            let stats = stats_for(uid as u64, writes);
            small += stats.small_file_count;
            all += stats.file_count;
        }
        (
            state.files_reduced as f64,
            state.gbhr_spent,
            small as f64 / all as f64,
        )
    }
}

/// A fresh synthetic world: lake, platform and commit stream over one
/// shared fleet state.
pub fn world(sizes: SynthSizes, seed: u64) -> (SynthLake, SynthPlatform, SynthSource) {
    let state = Rc::new(RefCell::new(State {
        writes: vec![0; sizes.tables],
        log: Vec::new(),
        log_base: 0,
        files_reduced: 0,
        gbhr_spent: 0.0,
    }));
    (
        SynthLake {
            state: state.clone(),
        },
        SynthPlatform {
            state: state.clone(),
            next_job: 0,
            running: VecDeque::new(),
        },
        SynthSource {
            state,
            sizes,
            rng: SplitMix64(seed),
            tick: 1,
            emitted: 0,
        },
    )
}
