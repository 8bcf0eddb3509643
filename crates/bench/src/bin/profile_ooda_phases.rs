//! Phase-level timing probe for OODA cycles over a synthetic 100K-table
//! lake: where does the framework overhead actually go?
//!
//! Timing comes from the pipeline's own telemetry phase spans — the same
//! single implementation every instrumented cycle uses — with an
//! `Instant`-based microsecond clock installed on the sink (this binary
//! genuinely profiles, so the wall clock is the right clock; see the
//! clock-injection rule in `autocomp::telemetry`). Each round prints the
//! span breakdown for its cycle, and the run ends with the sink's
//! [`autocomp::FleetHealthReport`] roll-up.

use std::sync::Arc;
use std::time::Instant;

use autocomp::telemetry::{names, phase};
use autocomp::{
    AlreadyCompactFilter, AutoComp, AutoCompConfig, Candidate, CandidateStats, ChangeCursor,
    CompactionDisabledFilter, CompactionExecutor, ComputeCostGbhr, CycleInput, ExecutionResult,
    FileCountReduction, FleetObserver, LakeConnector, Prediction, RankingPolicy, ScopeStrategy,
    TableRef, TelemetrySink, TraitWeight, Untracked,
};

struct SyntheticLake {
    tables: Vec<TableRef>,
    dirty: Vec<u64>,
}

impl SyntheticLake {
    fn new(n: u64) -> Self {
        SyntheticLake {
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
            // 1% dirty window, so incremental rounds show the splice.
            dirty: (0..n / 100).map(|i| i * 100 % n.max(1)).collect(),
        }
    }
}

impl LakeConnector for SyntheticLake {
    fn list_tables(&self) -> Vec<TableRef> {
        self.tables.clone()
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
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(0))
    }
    fn changes_since(&self, _cursor: ChangeCursor) -> Option<Vec<u64>> {
        Some(self.dirty.clone())
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

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100_000);
    let lake = SyntheticLake::new(n);

    let epoch = Instant::now();
    let sink = TelemetrySink::with_clock(Arc::new(move || epoch.elapsed().as_micros() as u64));
    let mut ac = AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 100,
        },
        trigger_label: "profile".to_string(),
        calibrate: false,
    })
    .with_filter(Box::new(CompactionDisabledFilter))
    .with_filter(Box::new(AlreadyCompactFilter {
        min_small_files: 2,
        min_small_fraction: 0.0,
    }))
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
    .with_telemetry(sink);

    let mut observer = FleetObserver::new();
    let mut exec = Untracked(NullExecutor);
    for round in 0..5 {
        let report = ac
            .cycle(CycleInput {
                connector: &lake,
                observer: &mut observer,
                executor: &mut exec,
                now_ms: round,
            })
            .expect("cycle runs");
        let cycle = ac.telemetry().current_cycle();
        let line: Vec<String> = ac
            .telemetry()
            .recent_spans()
            .iter()
            .filter(|s| s.cycle == cycle)
            .map(|s| format!("{}={}us", s.phase, s.duration))
            .collect();
        println!(
            "round {round} ({}): {} | generated={} dropped={} executed={}",
            if round == 0 { "cold" } else { "incremental" },
            line.join(" "),
            report.generated,
            report.dropped.len(),
            report.executed.len(),
        );
    }

    println!("\nper-phase histograms over all rounds (us):");
    if let Some(reg) = ac.telemetry().registry() {
        for name in phase::ALL {
            if let Some(snap) = reg.histogram_snapshot(autocomp::telemetry::MetricKey::labelled(
                names::PIPELINE_PHASE_DURATION_US,
                names::LABEL_PHASE,
                name,
            )) {
                let (p50, p95, p99) = snap.p50_p95_p99();
                println!(
                    "  {name:<13} n={} mean={:.0} p50={} p95={} p99={} max={}",
                    snap.count,
                    snap.mean(),
                    p50,
                    p95,
                    p99,
                    snap.max
                );
            }
        }
    }

    println!("\n{}", ac.telemetry().health_report());
}
