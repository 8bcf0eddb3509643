//! Telemetry-layer contracts (PR 9).
//!
//! * Property: log2-histogram percentile readout lands in the same log2
//!   bucket as the exact sorted-slice percentile across seeded
//!   distributions, with exact count/min/max.
//! * Golden: `render_prometheus()` of a scripted deterministic runtime
//!   session is pinned byte-for-byte — stable ordering, label
//!   rendering, and bucket cumulativity are all load-bearing.

use proptest::prelude::*;

use autocomp::telemetry::{bucket_index, names, MetricKey};
use autocomp::{
    pump_completions, AutoComp, AutoCompConfig, Candidate, CandidateStats, ChangeCursor,
    CompactionExecutor, ComputeCostGbhr, ContinuousRuntime, ExecutionResult, FileCountReduction,
    JobOutcome, JobOutcomeStatus, JobRuntimeConfig, LakeConnector, Log2Histogram, Prediction,
    RankingPolicy, RuntimeConfig, RuntimeEvent, ScopeStrategy, TableRef, TrackedExecutor,
    TraitWeight,
};
use lakesim_storage::{Journal, MemSnapshotMedium, SnapshotStore};

/// Exact nearest-rank percentile over a sorted slice — the readout the
/// histogram must stay within one log2 bucket of.
fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

fn check_against_exact(samples: &[u64]) -> Result<(), proptest::test_runner::TestCaseError> {
    let hist = Log2Histogram::new();
    for &s in samples {
        hist.record(s);
    }
    let snap = hist.snapshot();
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    prop_assert_eq!(snap.count, samples.len() as u64);
    prop_assert_eq!(snap.min, sorted[0]);
    prop_assert_eq!(snap.max, *sorted.last().unwrap());
    for p in [0.0, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0] {
        let exact = exact_percentile(&sorted, p);
        let got = snap.quantile(p);
        prop_assert_eq!(
            bucket_index(got),
            bucket_index(exact),
            "p={}: histogram readout {} left the exact value {}'s bucket",
            p,
            got,
            exact
        );
    }
    prop_assert_eq!(snap.quantile(1.0), snap.max, "p100 is the exact max");
    Ok(())
}

proptest! {
    /// Uniform-ish latencies: the decision-latency shape.
    #[test]
    fn histogram_tracks_uniform_distributions(
        samples in proptest::collection::vec(0u64..3_000_000, 1..400)
    ) {
        check_against_exact(&samples)?;
    }

    /// Log-scale samples spanning many buckets (heavy-tailed shape):
    /// mantissa shifted across six decades.
    #[test]
    fn histogram_tracks_heavy_tailed_distributions(
        samples in proptest::collection::vec(
            (0u32..40u32, 1u64..16u64).prop_map(|(shift, mantissa)| mantissa << shift),
            1..300
        )
    ) {
        check_against_exact(&samples)?;
    }
}

/// Rendered `_bucket` series must be cumulative and end at `_count`.
#[test]
fn rendered_buckets_are_cumulative() {
    let hist = Log2Histogram::new();
    for v in [0u64, 1, 3, 3, 90, 1_500, 70_000, u64::MAX] {
        hist.record(v);
    }
    let reg = autocomp::TelemetryRegistry::new();
    let key = MetricKey::plain(names::RUNTIME_DECISION_LATENCY_MS);
    for v in [0u64, 1, 3, 3, 90, 1_500, 70_000, u64::MAX] {
        reg.observe(key, v);
    }
    let render = reg.render_prometheus();
    let mut cumulative = Vec::new();
    for line in render.lines() {
        if let Some(rest) = line.strip_prefix("autocomp_runtime_decision_latency_ms_bucket") {
            let count: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
            cumulative.push(count);
        }
    }
    assert!(cumulative.len() >= 2, "buckets rendered: {render}");
    assert!(
        cumulative.windows(2).all(|w| w[0] <= w[1]),
        "bucket counts not cumulative: {cumulative:?}"
    );
    assert_eq!(*cumulative.last().unwrap(), 8, "+Inf bucket holds count");
    assert!(render.contains("autocomp_runtime_decision_latency_ms_count 8"));
}

/// Two-table deterministic lake for the scripted runtime session: stats
/// are a pure function of the per-table write count (shared with the
/// platform, which resets it on settle).
struct ScriptedLake {
    writes: std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
}

fn scripted_stats(uid: u64, writes: u32) -> CandidateStats {
    let w = writes as u64;
    CandidateStats {
        file_count: 40 + uid + 8 * w,
        small_file_count: 30 + 8 * w,
        small_bytes: (30 + 8 * w) * (8 << 20),
        total_bytes: (40 + uid + 8 * w) * (64 << 20),
        target_file_size: 512 << 20,
        ..CandidateStats::default()
    }
}

impl LakeConnector for ScriptedLake {
    fn list_tables(&self) -> Vec<TableRef> {
        (0..2)
            .map(|uid| TableRef {
                table_uid: uid,
                database: "db".into(),
                name: format!("t{uid}").into(),
                partitioned: false,
                compaction_enabled: true,
                is_intermediate: false,
            })
            .collect()
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        let writes = *self.writes.borrow().get(uid as usize)?;
        Some(scripted_stats(uid, writes))
    }
    fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
        Vec::new()
    }
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(0))
    }
    fn changes_since(&self, _cursor: ChangeCursor) -> Option<Vec<u64>> {
        Some(Vec::new())
    }
    fn listing_epoch(&self) -> Option<u64> {
        Some(0)
    }
}

/// Jobs settle a fixed 3s after submission.
struct ScriptedPlatform {
    writes: std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
    next_job: u64,
    running: Vec<(u64, u64, u64, f64)>,
}

impl CompactionExecutor for ScriptedPlatform {
    fn execute(&mut self, c: &Candidate, p: &Prediction, now_ms: u64) -> ExecutionResult {
        self.next_job += 1;
        self.running
            .push((self.next_job, c.id.table_uid, now_ms + 3_000, p.gbhr));
        ExecutionResult {
            scheduled: true,
            job_id: Some(self.next_job),
            gbhr: p.gbhr,
            commit_due_ms: Some(now_ms + 3_000),
            error: None,
        }
    }
}

impl TrackedExecutor for ScriptedPlatform {
    fn poll(&mut self, now_ms: u64) -> Vec<JobOutcome> {
        let (due, rest): (Vec<_>, Vec<_>) = self
            .running
            .drain(..)
            .partition(|(_, _, d, _)| *d <= now_ms);
        self.running = rest;
        due.into_iter()
            .map(|(job_id, uid, at, gbhr)| {
                let mut writes = self.writes.borrow_mut();
                let before = scripted_stats(uid, writes[uid as usize]).file_count;
                writes[uid as usize] = 0;
                JobOutcome {
                    job_id,
                    table_uid: uid,
                    status: JobOutcomeStatus::Succeeded,
                    finished_at_ms: at,
                    actual_reduction: before as i64 - scripted_stats(uid, 0).file_count as i64,
                    actual_gbhr: gbhr,
                }
            })
            .collect()
    }
}

/// Drives a fixed event script through a durable [`ContinuousRuntime`]
/// and returns the pipeline sink's Prometheus render. Everything runs on
/// the simulated clock under the sink's null clock, so the render is
/// bit-reproducible.
fn scripted_session_render() -> String {
    let writes = std::rc::Rc::new(std::cell::RefCell::new(vec![0u32; 2]));
    let lake = ScriptedLake {
        writes: writes.clone(),
    };
    let mut platform = ScriptedPlatform {
        writes: writes.clone(),
        next_job: 0,
        running: Vec::new(),
    };
    let pipeline = AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 1,
        },
        trigger_label: "telemetry-golden".into(),
        calibrate: false,
    })
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
    .with_job_tracker(JobRuntimeConfig {
        gbhr_budget: Some(50_000.0),
        ..JobRuntimeConfig::default()
    });
    let mut rt = ContinuousRuntime::new(
        pipeline,
        RuntimeConfig {
            dirty_watermark: Some(2),
            max_staleness_ms: Some(8_000),
            gbhr_headroom: None,
            min_round_interval_ms: 2_000,
            snapshot_every_rounds: 2,
        },
    )
    .with_durability(SnapshotStore::new(MemSnapshotMedium::new()), Journal::new());

    // Scripted schedule: commits dirty both tables at 1s (watermark
    // round), a single commit at 2.5s is interval-deferred then covered
    // by the staleness backstop, completions pump at 6s, and shutdown
    // flushes the tail at 12s.
    for (at_ms, uid) in [(1_000u64, 0u64), (1_000, 1), (2_500, 0), (9_500, 1)] {
        writes.borrow_mut()[uid as usize] += 1;
        rt.handle_event(
            &RuntimeEvent::Commit {
                at_ms,
                table_uid: uid,
            },
            &lake,
            &mut platform,
        )
        .expect("commit event");
    }
    pump_completions(&mut platform, &mut rt, 6_000);
    rt.handle_event(&RuntimeEvent::Timer { at_ms: 6_000 }, &lake, &mut platform)
        .expect("timer event");
    rt.shutdown(&lake, &mut platform, 12_000).expect("shutdown");
    rt.pipeline().telemetry().render_prometheus()
}

/// The pinned exposition, captured from one scripted run. Any change to
/// metric names, label rendering, ordering, or bucket layout shows up as
/// a diff here and must be deliberate. To regenerate after a deliberate
/// change: run with `UPDATE_TELEMETRY_GOLDEN=1`, then inspect the diff.
const GOLDEN: &str = include_str!("golden/telemetry_render.prom");

#[test]
fn golden_prometheus_render_is_pinned() {
    let render = scripted_session_render();
    assert_eq!(
        render,
        scripted_session_render(),
        "scripted session must be deterministic"
    );
    if std::env::var_os("UPDATE_TELEMETRY_GOLDEN").is_some() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/telemetry_render.prom"
            ),
            &render,
        )
        .expect("write golden");
    }
    assert_eq!(render, GOLDEN);
}
