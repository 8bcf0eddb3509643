//! Long-horizon incremental soak: 200+ cycles on a mutating fleet.
//!
//! Pins the properties that only show up over many incremental cycles:
//!
//! * **Dirty-sized observes** — an incremental observe fetches at most
//!   the cycle's dirty set, no matter how many cycles run. (The
//!   observation itself is one entry per table by construction — see
//!   `core/src/observe.rs` — so there is no retained-entry bound to pin.)
//! * **State boundedness** — exactly one decide state is retained, so
//!   its table count never exceeds the fleet size.
//! * **Reconvergence** — a periodic `FleetObserver::reset` makes the next
//!   cycle cold, and that cycle's report is bit-identical to a
//!   from-scratch cold pipeline over the same lake state.
//! * **Effectiveness** — between resets, quiet tables really are spliced
//!   (the soak would otherwise silently degrade to always-cold).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use autocomp::{
    AlreadyCompactFilter, AutoComp, AutoCompConfig, Candidate, CandidateStats, ChangeCursor,
    CompactionDisabledFilter, CompactionExecutor, ComputeCostGbhr, CycleInput, CycleReport,
    ExecutionResult, FileCountReduction, FleetObserver, LakeConnector, Prediction, RankingPolicy,
    ScopeStrategy, TableRef, TraitWeight, Untracked,
};

mod common;

const FLEET: u64 = 400;
const CYCLES: usize = 220;
const WRITES_PER_CYCLE: u64 = 8;
const RESET_EVERY: usize = 50;

/// Mutating model lake: pure per-table stats + changelog (same shape as
/// the parity harness's lake, sized for long runs).
struct SoakLake {
    tables: Vec<TableRef>,
    versions: Mutex<Vec<u64>>,
    log: Mutex<Vec<(u64, u64)>>,
    seq: AtomicU64,
}

impl SoakLake {
    fn new(n: u64) -> Self {
        SoakLake {
            tables: (0..n)
                .map(|i| TableRef {
                    table_uid: i,
                    database: format!("db{}", i % 16).into(),
                    name: format!("t{i}").into(),
                    partitioned: false,
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

    fn stats_for(&self, uid: u64) -> CandidateStats {
        let v = self.versions.lock().unwrap()[uid as usize];
        CandidateStats {
            file_count: 10 + (uid * 31 + v * 17) % 4000,
            small_file_count: (uid * 31 + v * 13) % 4000,
            small_bytes: ((uid * 71 + v) % 2048) << 20,
            total_bytes: (((uid * 131 + v) % 8192) + 1) << 20,
            target_file_size: 512 << 20,
            ..CandidateStats::default()
        }
    }
}

impl LakeConnector for SoakLake {
    fn list_tables(&self) -> Vec<TableRef> {
        self.tables.clone()
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        (uid < FLEET).then(|| self.stats_for(uid))
    }
    fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
        Vec::new()
    }
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(self.seq.load(Ordering::SeqCst)))
    }
    fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
        Some(
            self.log
                .lock()
                .unwrap()
                .iter()
                .filter(|(seq, _)| *seq >= cursor.0)
                .map(|(_, uid)| *uid)
                .collect(),
        )
    }
    fn listing_epoch(&self) -> Option<u64> {
        Some(0)
    }
}

struct NullExecutor;

impl CompactionExecutor for NullExecutor {
    fn execute(&mut self, _c: &Candidate, p: &Prediction, now: u64) -> ExecutionResult {
        ExecutionResult {
            scheduled: true,
            job_id: Some(1),
            gbhr: p.gbhr,
            commit_due_ms: Some(now),
            error: None,
        }
    }
}

fn pipeline() -> AutoComp {
    AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 25,
        },
        trigger_label: "soak".into(),
        calibrate: false,
    })
    .with_filter(Box::new(CompactionDisabledFilter))
    .with_filter(Box::new(AlreadyCompactFilter {
        min_small_files: 2,
        min_small_fraction: 0.0,
    }))
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
}

fn assert_reports_identical(a: &CycleReport, b: &CycleReport, context: &str) {
    assert_eq!(common::report_difference(a, b), None, "{context}");
}

/// Deterministic LCG for the mutation schedule (no external RNG crates).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[test]
fn soak_200_cycles_bounded_cache_with_exact_reconvergence() {
    let lake = SoakLake::new(FLEET);
    let mut ac = pipeline();
    let mut observer = FleetObserver::new();
    let mut exec = Untracked(NullExecutor);
    let mut rng = Lcg(0x5eed_cafe);

    for cycle in 0..CYCLES {
        for _ in 0..WRITES_PER_CYCLE {
            lake.write(rng.next() % FLEET);
        }
        let now = 1_000 + cycle as u64 * 997;

        if cycle > 0 && cycle % RESET_EVERY == 0 {
            // Periodic reconvergence: after a reset the next observe is
            // cold and must match a from-scratch cold pipeline exactly.
            observer.reset();
            let incremental = ac
                .cycle(CycleInput {
                    connector: &lake,
                    observer: &mut observer,
                    executor: &mut exec,
                    now_ms: now,
                })
                .unwrap();
            let mut cold = pipeline();
            cold.invalidate_cycle_cache();
            let cold = cold
                .cycle(CycleInput {
                    connector: &lake,
                    observer: &mut FleetObserver::new(),
                    executor: &mut exec,
                    now_ms: now,
                })
                .unwrap();
            assert_reports_identical(&incremental, &cold, &format!("reset at cycle {cycle}"));
            let obs = observer.last().unwrap();
            assert_eq!(
                obs.fetched_tables(),
                FLEET as usize,
                "reset observe is cold"
            );
            continue;
        }

        ac.cycle(CycleInput {
            connector: &lake,
            observer: &mut observer,
            executor: &mut exec,
            now_ms: now,
        })
        .unwrap();

        let obs = observer.last().unwrap();
        // Incremental observes touch at most the dirty set.
        if cycle > 0 {
            assert!(
                obs.fetched_tables() <= WRITES_PER_CYCLE as usize,
                "cycle {cycle}: fetched {} > dirty bound",
                obs.fetched_tables()
            );
        }

        // Cache boundedness + effectiveness: exactly one generation is
        // retained (≤ fleet tables), and quiet tables splice.
        assert!(
            ac.cycle_cache_len() <= FLEET as usize,
            "cycle {cycle}: cache grew past the fleet"
        );
        let stats = ac.cycle_cache_stats();
        assert_eq!(
            stats.spliced_tables + stats.recomputed_tables,
            FLEET as usize,
            "cycle {cycle}: every table is either spliced or recomputed"
        );
        if cycle > 0 {
            assert!(
                stats.recomputed_tables <= WRITES_PER_CYCLE as usize,
                "cycle {cycle}: recomputed {} > dirty bound",
                stats.recomputed_tables
            );
            assert!(
                stats.spliced_tables >= FLEET as usize - WRITES_PER_CYCLE as usize,
                "cycle {cycle}: spliced only {}",
                stats.spliced_tables
            );
        }
    }

    // Final reconvergence after the full soak.
    observer.reset();
    let now = 1_000 + CYCLES as u64 * 997;
    let incremental = ac
        .cycle(CycleInput {
            connector: &lake,
            observer: &mut observer,
            executor: &mut exec,
            now_ms: now,
        })
        .unwrap();
    let mut cold = pipeline();
    cold.invalidate_cycle_cache();
    let cold = cold
        .cycle(CycleInput {
            connector: &lake,
            observer: &mut FleetObserver::new(),
            executor: &mut exec,
            now_ms: now,
        })
        .unwrap();
    assert_reports_identical(&incremental, &cold, "final reconvergence");
}
