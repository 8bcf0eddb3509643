//! Criterion: steady-state decision cycles over a fleet whose candidates
//! carry the adversarial-matrix transform signals (`scenarios.rs`'s
//! mixed-transform shape) — every cycle classifies kinds, ranks five
//! traits, and selects across merge/sort/relayout/purge work.
//!
//! `scenario_mix/100000` drives zipf-skewed dirty bursts (1K writes per
//! iteration, the commit-storm shape) through the incremental observe →
//! cycle path; `scenario_mix_cold/100000` replays the identical churn
//! through always-cold cycles in the same pass, so the two ids compare
//! like for like.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use autocomp::{
    AutoComp, AutoCompConfig, Candidate, CandidateStats, ChangeCursor, CompactionExecutor,
    ComputeCostGbhr, CycleInput, DeleteDebt, ExecutionResult, FileCountReduction, FleetObserver,
    JobKind, LakeConnector, PartitionSkewExcess, Prediction, ScopeStrategy, SortDisorder, TableRef,
    Untracked, PARTITION_SKEW_METRIC, SORT_DISORDER_METRIC, TRANSFORMS_ENABLED_METRIC,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lakesim_workload::scenario_policy;

/// Synthetic fleet with the mixed-transform scenario's signal shape:
/// stats are pure `f(uid, version)` and the custom metrics sweep every
/// `JobKind::classify` threshold, so each cycle decides over a real mix
/// of rewrite kinds. A sorted changelog feeds the incremental driver.
struct MixLake {
    tables: Vec<TableRef>,
    versions: Mutex<Vec<u64>>,
    log: Mutex<Vec<(u64, u64)>>, // (seq, uid), seq ascending
    seq: AtomicU64,
}

impl MixLake {
    fn new(n: u64) -> Self {
        MixLake {
            tables: (0..n)
                .map(|i| TableRef {
                    table_uid: i,
                    database: format!("db{}", i % 64).into(),
                    name: format!("t{i}").into(),
                    partitioned: i % 2 == 0,
                    compaction_enabled: i % 17 != 0,
                    is_intermediate: i % 23 == 0,
                })
                .collect(),
            versions: Mutex::new(vec![0; n as usize]),
            log: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
        }
    }

    fn write(&self, uid: u64) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.log.lock().unwrap().push((seq, uid));
        self.versions.lock().unwrap()[uid as usize] += 1;
    }
}

impl LakeConnector for MixLake {
    fn list_tables(&self) -> Vec<TableRef> {
        self.tables.clone()
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        let v = self.versions.lock().unwrap()[uid as usize];
        Some(
            CandidateStats {
                file_count: 10 + (uid * 31 + v * 7) % 4000,
                small_file_count: (uid * 31 + v * 5) % 4000,
                small_bytes: ((uid * 71 + v) % 2048) << 20,
                total_bytes: (((uid * 131 + v) % 8192) + 64) << 20,
                delete_file_count: (uid * 3 + v * 2) % 9,
                target_file_size: 512 << 20,
                ..CandidateStats::default()
            }
            .with_custom(TRANSFORMS_ENABLED_METRIC, ((uid + v) % 2) as f64)
            .with_custom(
                SORT_DISORDER_METRIC,
                ((uid * 7 + v * 5) % 100) as f64 / 100.0,
            )
            .with_custom(
                PARTITION_SKEW_METRIC,
                1.0 + ((uid * 5 + v * 3) % 48) as f64 / 8.0,
            ),
        )
    }
    fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
        Vec::new()
    }
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(self.seq.load(Ordering::SeqCst)))
    }
    fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
        let log = self.log.lock().unwrap();
        // seq is assigned in push order, so the log is sorted: O(log n)
        // to find the cursor, O(dirty) to drain — the log can grow for a
        // whole bench pass without dragging the measurement.
        let start = log.partition_point(|(seq, _)| *seq < cursor.0);
        Some(log[start..].iter().map(|(_, uid)| *uid).collect())
    }
    fn listing_epoch(&self) -> Option<u64> {
        Some(0)
    }
}

struct NullExecutor;

impl CompactionExecutor for NullExecutor {
    fn execute(&mut self, _c: &Candidate, _p: &Prediction, now: u64) -> ExecutionResult {
        ExecutionResult {
            scheduled: true,
            job_id: Some(1),
            gbhr: 0.0,
            commit_due_ms: Some(now),
            error: None,
        }
    }
}

fn pipeline() -> AutoComp {
    // The matrix's MOOP cell (scenario policy 1) over the full
    // transform-aware trait set.
    AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: scenario_policy(1),
        trigger_label: "scenario-mix".to_string(),
        calibrate: false,
    })
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
    .with_trait(Box::new(DeleteDebt))
    .with_trait(Box::new(SortDisorder))
    .with_trait(Box::new(PartitionSkewExcess))
}

/// SplitMix64 — same generator family as the workload crate.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf-ish skew: min of three uniform draws, the commit-storm shape.
fn zipf_below(state: &mut u64, n: u64) -> u64 {
    let a = splitmix(state) % n;
    let b = splitmix(state) % n;
    let c = splitmix(state) % n;
    a.min(b).min(c)
}

const BURST: usize = 1_000;

fn bench_scenario_mix(c: &mut Criterion) {
    let n: u64 = 100_000;
    let lake = MixLake::new(n);

    // Non-vacuity gate once per pass: a cycle over this fleet must
    // actually select several distinct rewrite kinds.
    {
        let mut ac = pipeline();
        let report = ac
            .cycle(CycleInput {
                connector: &lake,
                observer: &mut FleetObserver::new(),
                executor: &mut Untracked(NullExecutor),
                now_ms: 0,
            })
            .expect("cycle");
        let mut kinds = [false; 4];
        for job in &report.executed {
            kinds[match job.prediction.kind {
                JobKind::Merge => 0,
                JobKind::SortByColumn => 1,
                JobKind::PartitionRelayout => 2,
                JobKind::DeletionVectorPurge => 3,
            }] = true;
        }
        let distinct = kinds.iter().filter(|k| **k).count();
        eprintln!(
            "SCENARIO_MIX fleet={n} executed={} distinct_kinds={distinct}",
            report.executed.len()
        );
        assert!(distinct >= 2, "mixed fleet must select multiple kinds");
    }

    let mut group = c.benchmark_group("scenario_mix");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
        let mut ac = pipeline();
        let mut observer = FleetObserver::new();
        let mut rng = 0x5eed_u64;
        let mut now = 0u64;
        // Prime the retained observation so iterations measure the
        // steady state, not the first cold fill.
        ac.cycle(CycleInput {
            connector: &lake,
            observer: &mut observer,
            executor: &mut Untracked(NullExecutor),
            now_ms: now,
        })
        .expect("prime");
        b.iter(|| {
            for _ in 0..BURST {
                lake.write(zipf_below(&mut rng, n));
            }
            now += 1_000;
            ac.cycle(CycleInput {
                connector: &lake,
                observer: &mut observer,
                executor: &mut Untracked(NullExecutor),
                now_ms: now,
            })
            .expect("cycle runs")
        })
    });
    group.finish();

    // Same-pass cold companion: identical churn, always-cold cycles.
    let mut group = c.benchmark_group("scenario_mix_cold");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
        let mut ac = pipeline();
        let mut rng = 0x5eed_u64;
        let mut now = 0u64;
        b.iter(|| {
            for _ in 0..BURST {
                lake.write(zipf_below(&mut rng, n));
            }
            now += 1_000;
            ac.invalidate_cycle_cache();
            ac.cycle(CycleInput {
                connector: &lake,
                observer: &mut FleetObserver::new(),
                executor: &mut Untracked(NullExecutor),
                now_ms: now,
            })
            .expect("cold")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scenario_mix);
criterion_main!(benches);
