//! Adversarial compaction design-space matrix: seeded scenario
//! generators that stress one failure axis each, runnable through both
//! the fixed-cadence polled driver and the event-driven
//! [`ContinuousRuntime`] with **bit-identical outcomes**.
//!
//! Each scenario injects a deterministic write schedule into a real
//! [`SimEnv`] fleet (18 tables across 3 tenant databases) while an
//! AutoComp pipeline — with transform signals enabled, so jobs classify
//! into merge / sort / relayout / purge — runs decision cycles on a
//! fixed cadence. The end-to-end outcome ([`ScenarioOutcome`]) captures
//! the trajectories the `scenario_matrix` integration suite pins:
//! cumulative compaction GBHr, the fleet file-count curve at injection
//! quarters and drain end, the per-kind succeeded-job mix, cluster-side
//! conflicts, and how long past the injection window the policy kept
//! scheduling work (debt drain).
//!
//! Parity contract: the polled runner marks tables dirty itself and
//! cycles at the cadence boundary; the event runner feeds the same
//! writes as [`RuntimeEvent::Commit`]s (no threshold triggers armed)
//! and fires a [`RuntimeEvent::Flush`] at the same boundaries. Rounds
//! therefore run at identical times over identical dirty sets and
//! identical engine state, so every cell of the matrix must produce the
//! same [`ScenarioOutcome`] under either driver — the equivalence
//! `tests/scenario_matrix.rs` asserts cell by cell.

use autocomp::{
    AutoComp, AutoCompConfig, ComputeCostGbhr, ContinuousRuntime, CycleInput, DeleteDebt,
    FileCountReduction, FleetObserver, JobRuntimeConfig, PartitionSkewExcess, RankingPolicy,
    RuntimeConfig, RuntimeEvent, ScopeStrategy, SortDisorder, TraitWeight, SORT_DISORDER_METRIC,
};
use autocomp_lakesim::{share, LakesimConnector, LakesimExecutor, ObserveOptions, SharedEnv};
use lakesim_catalog::{JobStatus, RewriteKind, TablePolicy};
use lakesim_engine::{EnvConfig, FileSizePlan, SimEnv, WriteOp, WriteSpec};
use lakesim_lst::{
    ColumnType, Field, PartitionKey, PartitionSpec, PartitionValue, Schema, TableId,
    TableProperties, Transform,
};
use lakesim_storage::{FileKind, MB};

/// Fleet shape shared by every scenario.
const DATABASES: usize = 3;
/// Tables per database.
const TABLES_PER_DB: usize = 6;
/// Total tables.
const TABLES: usize = DATABASES * TABLES_PER_DB;
/// Injection tick length.
pub const TICK_MS: u64 = 10_000;
/// Write-injection ticks.
pub const INJECT_TICKS: u64 = 60;
/// Post-injection drain ticks (no new writes; cycles keep running).
pub const DRAIN_TICKS: u64 = 39;
/// Decision-cycle cadence in ticks.
pub const CYCLE_EVERY_TICKS: u64 = 3;

/// One axis of the adversarial design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Skewed-fleet commit storm: Zipf-like table picks concentrate
    /// fragmentation on a few hot tables while the tail starves.
    ZipfStorm,
    /// Flash crowd: a quiet fleet, then a 13-tick dirty burst focused on
    /// one database's tables.
    FlashCrowd,
    /// Quota churn: the first database's namespace quota flips between
    /// tight and unlimited every 10 ticks, starving writes and rewrites
    /// intermittently.
    QuotaChurn,
    /// Mass-delete wave: a sustained window of merge-on-read delete
    /// deltas builds purge debt fleet-wide.
    MassDelete,
    /// Mixed-kind contention: skewed partition writes + delete deltas +
    /// fresh unsorted ingest make sort, relayout, purge and merge all
    /// compete for the same cycles.
    MixedTransform,
}

impl Scenario {
    /// Every scenario, matrix order.
    pub const ALL: [Scenario; 5] = [
        Scenario::ZipfStorm,
        Scenario::FlashCrowd,
        Scenario::QuotaChurn,
        Scenario::MassDelete,
        Scenario::MixedTransform,
    ];

    /// Stable name used in golden summaries.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::ZipfStorm => "zipf-storm",
            Scenario::FlashCrowd => "flash-crowd",
            Scenario::QuotaChurn => "quota-churn",
            Scenario::MassDelete => "mass-delete",
            Scenario::MixedTransform => "mixed-transform",
        }
    }
}

/// The four ranking policies of the matrix, by index.
///
/// 0 — unconstrained threshold; 1 — fixed-k MOOP weighting delete debt;
/// 2 — budgeted MOOP weighting sort disorder; 3 — production
/// quota-aware MOOP.
pub fn scenario_policy(p: u8) -> RankingPolicy {
    match p {
        0 => RankingPolicy::Threshold {
            trait_name: "file_count_reduction".into(),
            min_value: 40.0,
            max_k: Some(12),
        },
        1 => RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.6),
                TraitWeight::new("compute_cost_gbhr", 0.25),
                TraitWeight::new("delete_debt", 0.15),
            ],
            k: 8,
        },
        2 => RankingPolicy::BudgetedMoop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.5),
                TraitWeight::new("compute_cost_gbhr", 0.3),
                TraitWeight::new(SORT_DISORDER_METRIC, 0.2),
            ],
            cost_trait: "compute_cost_gbhr".into(),
            budget: 5.0,
            max_k: Some(8),
        },
        3 => RankingPolicy::QuotaAwareMoop {
            benefit_trait: "file_count_reduction".into(),
            cost_trait: "compute_cost_gbhr".into(),
            k: Some(6),
            budget: None,
        },
        _ => panic!("policy index out of range: {p}"),
    }
}

/// Stable policy label used in golden summaries.
pub fn policy_name(p: u8) -> &'static str {
    match p {
        0 => "threshold",
        1 => "moop",
        2 => "budgeted-moop",
        3 => "quota-aware",
        _ => panic!("policy index out of range: {p}"),
    }
}

/// End-to-end outcome of one scenario × policy cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// User commits successfully submitted.
    pub commits: u64,
    /// GBHr spent by compaction jobs across the run (conflicted jobs
    /// included — the paper counts wasted resources, §2).
    pub cumulative_gbhr: f64,
    /// Fleet data-file counts at T/4, T/2, 3T/4, T of injection and at
    /// drain end.
    pub file_counts: [u64; 5],
    /// Succeeded jobs per kind: `[merge, sort, relayout, purge]`.
    pub jobs_by_kind: [usize; 4],
    /// Cluster-side conflicted jobs.
    pub jobs_conflicted: usize,
    /// How long past the injection window the policy kept scheduling
    /// jobs (0 when the last scheduling cycle fell inside injection).
    pub debt_drain_ms: u64,
}

impl ScenarioOutcome {
    /// One-line golden summary, stable across drivers and runs.
    pub fn summary(&self) -> String {
        format!(
            "commits={} gbhr={:.3} files=[{},{},{},{},{}] kinds=[merge={} sort={} relayout={} purge={}] conflicts={} drain_ms={}",
            self.commits,
            self.cumulative_gbhr,
            self.file_counts[0],
            self.file_counts[1],
            self.file_counts[2],
            self.file_counts[3],
            self.file_counts[4],
            self.jobs_by_kind[0],
            self.jobs_by_kind[1],
            self.jobs_by_kind[2],
            self.jobs_by_kind[3],
            self.jobs_conflicted,
            self.debt_drain_ms,
        )
    }
}

/// Deterministic schedule generator (SplitMix64).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Integer Zipf-ish skew: the minimum of three uniform draws
    /// concentrates mass on low indices without floating-point `powf`.
    fn zipf_below(&mut self, n: u64) -> u64 {
        let a = self.below(n);
        let b = self.below(n);
        let c = self.below(n);
        a.min(b).min(c)
    }
}

/// One scheduled write of the injection phase.
struct ScheduledWrite {
    table_idx: usize,
    op: WriteOp,
    bytes: u64,
    /// Partition day for partitioned tables.
    day: i32,
}

/// The writes scenario `s` injects at `tick` (1-based). Both drivers
/// call this in the same order with the same RNG, so the schedules are
/// bit-identical.
fn tick_writes(s: Scenario, rng: &mut SplitMix64, tick: u64) -> Vec<ScheduledWrite> {
    let mut writes = Vec::new();
    let uniform_day = (tick % 5) as i32;
    match s {
        Scenario::ZipfStorm => {
            for _ in 0..6 {
                writes.push(ScheduledWrite {
                    table_idx: rng.zipf_below(TABLES as u64) as usize,
                    op: WriteOp::Insert,
                    bytes: 16 * MB + rng.below(48 * MB),
                    day: uniform_day,
                });
            }
        }
        Scenario::FlashCrowd => {
            let (count, span) = if (20..=32).contains(&tick) {
                (18, TABLES_PER_DB as u64) // burst focused on db0's tables
            } else {
                (2, TABLES as u64)
            };
            for _ in 0..count {
                writes.push(ScheduledWrite {
                    table_idx: rng.below(span) as usize,
                    op: WriteOp::Insert,
                    bytes: 8 * MB + rng.below(24 * MB),
                    day: uniform_day,
                });
            }
        }
        Scenario::QuotaChurn => {
            for _ in 0..4 {
                writes.push(ScheduledWrite {
                    table_idx: rng.below(TABLES as u64) as usize,
                    op: WriteOp::Insert,
                    bytes: 16 * MB + rng.below(32 * MB),
                    day: uniform_day,
                });
            }
        }
        Scenario::MassDelete => {
            for _ in 0..3 {
                writes.push(ScheduledWrite {
                    table_idx: rng.below(TABLES as u64) as usize,
                    op: WriteOp::Insert,
                    bytes: 16 * MB + rng.below(32 * MB),
                    day: uniform_day,
                });
            }
            if (15..=45).contains(&tick) {
                for _ in 0..2 {
                    writes.push(ScheduledWrite {
                        table_idx: rng.below(TABLES as u64) as usize,
                        op: WriteOp::MergeOnReadDelta,
                        bytes: 2 * MB + rng.below(2 * MB),
                        day: uniform_day,
                    });
                }
            }
        }
        Scenario::MixedTransform => {
            for _ in 0..5 {
                let op = if rng.below(5) == 0 {
                    WriteOp::MergeOnReadDelta
                } else {
                    WriteOp::Insert
                };
                // 80% of writes hammer partition day 0: builds the
                // partition-skew signal past the relayout threshold.
                let day = if rng.below(5) < 4 { 0 } else { uniform_day };
                writes.push(ScheduledWrite {
                    table_idx: rng.below(TABLES as u64) as usize,
                    op,
                    bytes: 16 * MB + rng.below(48 * MB),
                    day,
                });
            }
        }
    }
    writes
}

/// Builds the scenario fleet: 3 databases × 6 tables, even indices
/// day-partitioned, grace window disabled so candidates qualify inside
/// the 10-minute run.
fn build_env(s: Scenario, seed: u64) -> (SharedEnv, Vec<TableId>) {
    let mut env = SimEnv::new(EnvConfig {
        seed,
        ..EnvConfig::default()
    });
    // Quotas: churn starts tight on db0; the quota-aware policy needs a
    // populated utilization signal everywhere, so every db gets one.
    let quota = match s {
        Scenario::QuotaChurn => Some(1_200),
        _ => Some(20_000),
    };
    for d in 0..DATABASES {
        env.create_database(&format!("sc_db{d}"), &format!("sc_tenant{d}"), quota)
            .expect("fresh database names never collide");
    }
    let mut tables = Vec::with_capacity(TABLES);
    for d in 0..DATABASES {
        for i in 0..TABLES_PER_DB {
            let schema = Schema::new(vec![
                Field::new(1, "key", ColumnType::Int64, true),
                Field::new(2, "ds", ColumnType::Date, true),
                Field::new(3, "payload", ColumnType::Utf8 { avg_len: 64 }, false),
            ])
            .expect("static schema is valid");
            let spec = if i % 2 == 0 {
                PartitionSpec::single(2, Transform::Day, "ds")
            } else {
                PartitionSpec::unpartitioned()
            };
            let id = env
                .create_table(
                    &format!("sc_db{d}"),
                    &format!("sc_tbl{d}_{i}"),
                    schema,
                    spec,
                    TableProperties::default(),
                    TablePolicy {
                        min_age_ms: 0,
                        ..TablePolicy::default()
                    },
                )
                .expect("fresh table names never collide");
            tables.push(id);
        }
    }
    (share(env), tables)
}

/// Scenario pipeline: table scope, all five trait computers (the kind
/// signals among them), a job tracker for settle/retry, and the cell's
/// ranking policy.
fn build_pipeline(policy: u8) -> AutoComp {
    AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: scenario_policy(policy),
        trigger_label: "scenario".into(),
        calibrate: false,
    })
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
    .with_trait(Box::new(DeleteDebt))
    .with_trait(Box::new(SortDisorder))
    .with_trait(Box::new(PartitionSkewExcess))
    .with_job_tracker(JobRuntimeConfig::default())
}

fn connector(env: &SharedEnv) -> LakesimConnector {
    LakesimConnector::with_options(
        env.clone(),
        ObserveOptions {
            transform_signals: true,
            ..ObserveOptions::default()
        },
    )
}

fn executor(env: &SharedEnv) -> LakesimExecutor {
    LakesimExecutor::new(env.clone())
}

/// Injects `tick`'s writes (and quota churn), returning the table uids
/// whose commits were accepted.
fn inject_tick(
    s: Scenario,
    rng: &mut SplitMix64,
    tick: u64,
    env: &SharedEnv,
    tables: &[TableId],
) -> Vec<u64> {
    let now = tick * TICK_MS;
    if s == Scenario::QuotaChurn && tick.is_multiple_of(10) {
        let tight = (tick / 10).is_multiple_of(2);
        let quota = if tight { Some(1_200) } else { None };
        env.borrow_mut()
            .fs
            .set_quota("sc_db0", quota)
            .expect("churn database exists");
    }
    let mut committed = Vec::new();
    for w in tick_writes(s, rng, tick) {
        let table = tables[w.table_idx];
        let partitioned = {
            let env = env.borrow();
            env.catalog
                .table(table)
                .map(|e| e.table.spec().is_partitioned())
                .unwrap_or(false)
        };
        let partition = if partitioned {
            PartitionKey::single(PartitionValue::Date(w.day))
        } else {
            PartitionKey::unpartitioned()
        };
        let spec = WriteSpec {
            table,
            op: w.op,
            partitions: vec![partition],
            total_bytes: w.bytes,
            file_size: FileSizePlan::misconfigured(),
            partition_skew: 0.0,
            cluster: "query".to_string(),
            parallelism: 4,
        };
        // Quota breaches are part of the phenomenon (§7): count the
        // accepted commits, skip the rejected ones in both drivers.
        if env.borrow_mut().submit_write(&spec, now).is_ok() {
            committed.push(table.0);
        }
    }
    committed
}

/// Shared trajectory accumulator: file-count curve samples and the last
/// cycle that scheduled work.
struct Trajectory {
    file_counts: [u64; 5],
    last_active_ms: u64,
    commits: u64,
}

impl Trajectory {
    fn new() -> Self {
        Trajectory {
            file_counts: [0; 5],
            last_active_ms: 0,
            commits: 0,
        }
    }

    fn sample_files(&mut self, env: &SharedEnv, tick: u64) {
        let quarter = INJECT_TICKS / 4;
        let slot = match tick {
            t if t == quarter => Some(0),
            t if t == 2 * quarter => Some(1),
            t if t == 3 * quarter => Some(2),
            t if t == INJECT_TICKS => Some(3),
            t if t == INJECT_TICKS + DRAIN_TICKS => Some(4),
            _ => None,
        };
        if let Some(slot) = slot {
            self.file_counts[slot] = env.borrow().fs.total_files_of_kind(FileKind::Data);
        }
    }

    fn finish(self, env: &SharedEnv) -> ScenarioOutcome {
        let env = env.borrow();
        let mut jobs_by_kind = [0usize; 4];
        let mut jobs_conflicted = 0usize;
        let mut cumulative_gbhr = 0.0;
        for r in env.maintenance.records() {
            cumulative_gbhr += r.actual_gbhr;
            match r.status {
                JobStatus::Succeeded => {
                    let slot = match r.kind {
                        RewriteKind::Merge => 0,
                        RewriteKind::Sort => 1,
                        RewriteKind::Relayout => 2,
                        RewriteKind::Purge => 3,
                    };
                    jobs_by_kind[slot] += 1;
                }
                JobStatus::Conflicted => jobs_conflicted += 1,
                JobStatus::Failed => {}
            }
        }
        ScenarioOutcome {
            commits: self.commits,
            cumulative_gbhr,
            file_counts: self.file_counts,
            jobs_by_kind,
            jobs_conflicted,
            debt_drain_ms: self.last_active_ms.saturating_sub(INJECT_TICKS * TICK_MS),
        }
    }
}

/// Runs one cell through the fixed-cadence polled driver.
pub fn run_scenario_polled(s: Scenario, policy: u8, seed: u64) -> ScenarioOutcome {
    let (env, tables) = build_env(s, seed);
    let lake = connector(&env);
    let mut exec = executor(&env);
    let mut pipeline = build_pipeline(policy);
    let mut observer = FleetObserver::new();
    let mut rng = SplitMix64(seed);
    let mut traj = Trajectory::new();
    for tick in 1..=(INJECT_TICKS + DRAIN_TICKS) {
        let now = tick * TICK_MS;
        if tick <= INJECT_TICKS {
            for uid in inject_tick(s, &mut rng, tick, &env, &tables) {
                observer.mark_dirty(uid);
                traj.commits += 1;
            }
        }
        if tick.is_multiple_of(CYCLE_EVERY_TICKS) {
            let report = pipeline
                .cycle(CycleInput {
                    connector: &lake,
                    observer: &mut observer,
                    executor: &mut exec,
                    now_ms: now,
                })
                .expect("polled scenario cycle");
            if !report.executed.is_empty() {
                traj.last_active_ms = now;
            }
        }
        traj.sample_files(&env, tick);
    }
    traj.finish(&env)
}

/// Runs one cell through the event-driven continuous runtime: commits
/// as events, rounds only on cadence flushes (no threshold triggers),
/// so the decision schedule matches the polled driver exactly.
pub fn run_scenario_event(s: Scenario, policy: u8, seed: u64) -> ScenarioOutcome {
    let (env, tables) = build_env(s, seed);
    let lake = connector(&env);
    let mut exec = executor(&env);
    let mut rt = ContinuousRuntime::new(
        build_pipeline(policy),
        RuntimeConfig {
            dirty_watermark: None,
            max_staleness_ms: None,
            gbhr_headroom: None,
            min_round_interval_ms: 0,
            snapshot_every_rounds: 0,
        },
    );
    let mut rng = SplitMix64(seed);
    let mut traj = Trajectory::new();
    for tick in 1..=(INJECT_TICKS + DRAIN_TICKS) {
        let now = tick * TICK_MS;
        if tick <= INJECT_TICKS {
            for uid in inject_tick(s, &mut rng, tick, &env, &tables) {
                traj.commits += 1;
                let fired = rt
                    .handle_event(
                        &RuntimeEvent::Commit {
                            at_ms: now,
                            table_uid: uid,
                        },
                        &lake,
                        &mut exec,
                    )
                    .expect("commit event");
                assert!(fired.is_none(), "no threshold triggers are armed");
            }
        }
        if tick.is_multiple_of(CYCLE_EVERY_TICKS) {
            let round = rt
                .handle_event(&RuntimeEvent::Flush { at_ms: now }, &lake, &mut exec)
                .expect("flush round")
                .expect("flush always fires a round");
            if !round.report.executed.is_empty() {
                traj.last_active_ms = now;
            }
        }
        traj.sample_files(&env, tick);
    }
    traj.finish(&env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seed_deterministic() {
        let mut a = SplitMix64(9);
        let mut b = SplitMix64(9);
        for tick in 1..=10 {
            let wa = tick_writes(Scenario::MixedTransform, &mut a, tick);
            let wb = tick_writes(Scenario::MixedTransform, &mut b, tick);
            assert_eq!(wa.len(), wb.len());
            for (x, y) in wa.iter().zip(&wb) {
                assert_eq!(x.table_idx, y.table_idx);
                assert_eq!(x.bytes, y.bytes);
            }
        }
    }

    #[test]
    fn zipf_concentrates_on_low_indices() {
        let mut rng = SplitMix64(3);
        let mut low = 0;
        for _ in 0..1000 {
            if rng.zipf_below(18) < 6 {
                low += 1;
            }
        }
        // min-of-3 over 18: P(< 6) = 1 - (2/3)^3 ≈ 0.70.
        assert!(low > 600, "low-index mass {low}/1000");
    }

    #[test]
    fn polled_cell_produces_work_of_multiple_kinds() {
        let out = run_scenario_polled(Scenario::MixedTransform, 1, 42);
        assert!(out.commits > 100);
        assert!(out.cumulative_gbhr > 0.0);
        let jobs: usize = out.jobs_by_kind.iter().sum();
        assert!(jobs > 0, "{out:?}");
        assert!(
            out.jobs_by_kind.iter().filter(|&&n| n > 0).count() >= 2,
            "mixed scenario exercises several kinds: {:?}",
            out.jobs_by_kind
        );
    }

    #[test]
    fn mass_delete_drives_purges() {
        let out = run_scenario_polled(Scenario::MassDelete, 1, 42);
        assert!(out.jobs_by_kind[3] > 0, "purge jobs: {out:?}");
    }

    #[test]
    fn event_and_polled_drivers_agree() {
        let a = run_scenario_polled(Scenario::ZipfStorm, 0, 7);
        let b = run_scenario_event(Scenario::ZipfStorm, 0, 7);
        assert_eq!(a, b);
    }
}
