//! Fleet-scale smoke test: one full OODA cycle over a synthetic 100K-table
//! lake (the paper's projected fleet size, §7) through the columnar decide
//! path — filters, orient, partial top-k selection, act.

use autocomp::{
    AlreadyCompactFilter, AutoComp, AutoCompConfig, Candidate, CandidateStats,
    CompactionDisabledFilter, CompactionExecutor, ComputeCostGbhr, CycleInput, ExecutionResult,
    FileCountReduction, FleetObserver, LakeConnector, Prediction, RankingPolicy, ScopeStrategy,
    TableRef, TraitWeight, Untracked, RANKED_PREFIX_MIN,
};

const FLEET: u64 = 100_000;

struct SyntheticLake;

impl LakeConnector for SyntheticLake {
    fn list_tables(&self) -> Vec<TableRef> {
        (0..FLEET)
            .map(|i| TableRef {
                table_uid: i,
                database: format!("db{}", i % 64).into(),
                name: format!("t{i}").into(),
                partitioned: false,
                compaction_enabled: i % 17 != 0,
                is_intermediate: i % 23 == 0,
            })
            .collect()
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        Some(CandidateStats {
            file_count: 10 + (uid * 31) % 4000,
            small_file_count: (uid * 31) % 4000,
            small_bytes: ((uid * 71) % 2048) << 20,
            total_bytes: ((uid * 131) % 8192) << 20,
            target_file_size: 512 << 20,
            ..CandidateStats::default()
        })
    }
    fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
        Vec::new()
    }
}

struct NullExecutor {
    calls: usize,
}

impl CompactionExecutor for NullExecutor {
    fn execute(&mut self, _c: &Candidate, _p: &Prediction, now: u64) -> ExecutionResult {
        self.calls += 1;
        ExecutionResult {
            scheduled: true,
            job_id: Some(self.calls as u64),
            gbhr: 0.0,
            commit_due_ms: Some(now),
            error: None,
        }
    }
}

#[test]
fn hundred_thousand_table_cycle() {
    let mut ac = AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 100,
        },
        trigger_label: "fleet-smoke".into(),
        calibrate: false,
    })
    .with_filter(Box::new(CompactionDisabledFilter))
    .with_filter(Box::new(AlreadyCompactFilter {
        min_small_files: 2,
        min_small_fraction: 0.0,
    }))
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()));

    let mut exec = Untracked(NullExecutor { calls: 0 });
    let report = ac
        .cycle(CycleInput {
            connector: &SyntheticLake,
            observer: &mut FleetObserver::new(),
            executor: &mut exec,
            now_ms: 0,
        })
        .expect("cycle runs");

    assert_eq!(report.generated, FLEET as usize);
    assert!(!report.dropped.is_empty(), "filters must drop something");
    assert_eq!(
        report.ranked.len() + report.dropped.len(),
        FLEET as usize,
        "every candidate is accounted for"
    );
    assert_eq!(report.selected_count(), 100);
    assert_eq!(exec.0.calls, 100);

    // The materialized prefix is in strict rank order and the selected
    // candidates lead it; the (lazily generated) tail is unselected.
    let prefix = 100.max(RANKED_PREFIX_MIN);
    let head = report.ranked.head();
    assert!(head.len() >= prefix, "head covers the report prefix");
    for w in head[..prefix].windows(2) {
        assert!(
            w[0].score > w[1].score || (w[0].score == w[1].score && w[0].id < w[1].id),
            "prefix must be best-first"
        );
    }
    assert!(head[..100].iter().all(|e| e.selected));
    assert!(report.ranked.iter().skip(100).all(|e| !e.selected));

    // Deterministic across runs.
    let mut exec2 = Untracked(NullExecutor { calls: 0 });
    let report2 = ac
        .cycle(CycleInput {
            connector: &SyntheticLake,
            observer: &mut FleetObserver::new(),
            executor: &mut exec2,
            now_ms: 0,
        })
        .expect("cycle runs");
    assert_eq!(report.to_string(), report2.to_string());

    // The report renders only the prefix, never the fleet tail, and
    // keeps the trait rows of that prefix only.
    let rendered = report.to_string();
    assert!(rendered.lines().count() < RANKED_PREFIX_MIN + 10);
    assert_eq!(report.traits.rows(), RANKED_PREFIX_MIN);
}
