//! The pipeline against the naive reference cycle (`common/reference.rs`):
//! warm and cold cycles over randomized fleets, across all four scopes
//! and all four policies, with a trait that turns NaN on some rows; and
//! every round of a seeded `ContinuousRuntime` stream, whose decision
//! digest is pinned to its definition.

use std::sync::Mutex;

use autocomp::{
    AlreadyCompactFilter, AutoComp, AutoCompConfig, Candidate, CandidateFilter, CandidateStats,
    ChangeCursor, CompactionDisabledFilter, CompactionExecutor, ComputeCostGbhr, ContinuousRuntime,
    CycleInput, ExecutionResult, FileCountReduction, FleetObserver, LakeConnector, Prediction,
    QuotaSignal, RankingPolicy, RoundReport, RuntimeConfig, RuntimeEvent, ScopeStrategy, TableRef,
    TraitComputer, TraitDirection, TraitWeight, Untracked,
};
use proptest::collection;
use proptest::prelude::*;

mod common;
use common::reference::{reference_cycle, reference_difference};

/// Lake whose stats are a pure function of `(uid, partition, version)`,
/// with a write changelog. Every third table is partitioned.
struct Lake {
    tables: Vec<TableRef>,
    versions: Mutex<Vec<u64>>,
    log: Mutex<Vec<u64>>,
}

impl Lake {
    fn new(n: u64) -> Self {
        Lake {
            tables: (0..n)
                .map(|uid| TableRef {
                    table_uid: uid,
                    database: format!("db{}", uid % 3).into(),
                    name: format!("t{uid}").into(),
                    partitioned: uid.is_multiple_of(3),
                    compaction_enabled: uid % 7 != 5,
                    is_intermediate: false,
                })
                .collect(),
            versions: Mutex::new(vec![0; n as usize]),
            log: Mutex::new(Vec::new()),
        }
    }

    fn write(&self, uid: u64) {
        self.versions.lock().unwrap()[uid as usize] += 1;
        self.log.lock().unwrap().push(uid);
    }

    fn stats_for(&self, uid: u64, part: u64) -> CandidateStats {
        let v = self.versions.lock().unwrap()[uid as usize];
        let small = (uid * 7 + v * 13 + part * 3) % 50;
        CandidateStats {
            file_count: small + 2 + v % 3,
            small_file_count: small,
            small_bytes: small << 22,
            total_bytes: ((uid * 31 + v) % 9 + 1) << 26,
            target_file_size: 512 << 20,
            quota: Some(QuotaSignal {
                used: (uid * 11 + v) % 100,
                total: 100,
            }),
            ..CandidateStats::default()
        }
    }
}

impl LakeConnector for Lake {
    fn list_tables(&self) -> Vec<TableRef> {
        self.tables.clone()
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        Some(self.stats_for(uid, 0))
    }
    fn partition_stats(&self, uid: u64) -> Vec<(String, CandidateStats)> {
        let parts = if uid.is_multiple_of(3) {
            uid % 4 + 1
        } else {
            0
        };
        (0..parts)
            .map(|p| (format!("p{p}"), self.stats_for(uid, p)))
            .collect()
    }
    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        Some(ChangeCursor(self.log.lock().unwrap().len() as u64))
    }
    fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
        Some(self.log.lock().unwrap()[cursor.0 as usize..].to_vec())
    }
    fn listing_epoch(&self) -> Option<u64> {
        Some(0)
    }
}

/// A benefit trait that is NaN on every row with a multiple of 11 small
/// files.
struct Poison;

impl TraitComputer for Poison {
    fn name(&self) -> &str {
        "poison"
    }
    fn direction(&self) -> TraitDirection {
        TraitDirection::Benefit
    }
    fn compute(&self, stats: &CandidateStats) -> f64 {
        match stats.small_file_count % 11 {
            0 => f64::NAN,
            r => r as f64,
        }
    }
}

struct NullExecutor;

impl CompactionExecutor for NullExecutor {
    fn execute(&mut self, _c: &Candidate, p: &Prediction, now: u64) -> ExecutionResult {
        ExecutionResult {
            scheduled: true,
            job_id: Some(now),
            gbhr: p.gbhr,
            commit_due_ms: Some(now + 1_000),
            error: None,
        }
    }
}

fn filters() -> Vec<Box<dyn CandidateFilter>> {
    vec![
        Box::new(CompactionDisabledFilter),
        Box::new(AlreadyCompactFilter {
            min_small_files: 4,
            min_small_fraction: 0.0,
        }),
    ]
}

fn traits() -> Vec<Box<dyn TraitComputer>> {
    vec![
        Box::new(FileCountReduction::default()),
        Box::new(ComputeCostGbhr::default()),
        Box::new(Poison),
    ]
}

fn policy(p: u8) -> RankingPolicy {
    let weights = vec![
        TraitWeight::new("file_count_reduction", 0.5),
        TraitWeight::new("compute_cost_gbhr", 0.3),
        TraitWeight::new("poison", 0.2),
    ];
    match p % 4 {
        0 => RankingPolicy::Moop { weights, k: 4 },
        1 => RankingPolicy::Threshold {
            trait_name: "poison".into(),
            min_value: 5.0,
            max_k: Some(6),
        },
        2 => RankingPolicy::BudgetedMoop {
            weights,
            cost_trait: "compute_cost_gbhr".into(),
            budget: 3.0,
            max_k: None,
        },
        _ => RankingPolicy::QuotaAwareMoop {
            benefit_trait: "file_count_reduction".into(),
            cost_trait: "compute_cost_gbhr".into(),
            k: Some(3),
            budget: None,
        },
    }
}

fn pipeline(scope: ScopeStrategy, p: u8) -> AutoComp {
    let ac = AutoComp::new(AutoCompConfig {
        scope,
        policy: policy(p),
        trigger_label: "reference".into(),
        calibrate: false,
    });
    let ac = filters().into_iter().fold(ac, AutoComp::with_filter);
    traits().into_iter().fold(ac, AutoComp::with_trait)
}

const SCOPES: [ScopeStrategy; 4] = [
    ScopeStrategy::Table,
    ScopeStrategy::Partition,
    ScopeStrategy::Hybrid,
    ScopeStrategy::Snapshot { window_ms: 1000 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Warm cycles over written fleets decide what the reference decides
    /// over the same observation, and so do cold ones.
    #[test]
    fn cycles_match_the_reference_cycle(
        n in 1u64..30,
        p in 0u8..4,
        writes in collection::vec(collection::vec(0u64..1_000, 0..6), 1..8),
    ) {
        for scope in SCOPES {
            let lake = Lake::new(n);
            let mut warm = pipeline(scope, p);
            let mut observer = FleetObserver::new();
            let (ref_filters, ref_traits) = (filters(), traits());
            for (step, batch) in writes.iter().enumerate() {
                batch.iter().for_each(|raw| lake.write(raw % n));
                let now_ms = 1_000 * step as u64;
                let report = warm
                    .cycle(CycleInput {
                        connector: &lake,
                        observer: &mut observer,
                        executor: &mut Untracked(NullExecutor),
                        now_ms,
                    })
                    .unwrap();
                let observation = observer.last().unwrap();
                let reference =
                    reference_cycle(observation, &ref_filters, &ref_traits, &policy(p), now_ms);
                let difference = reference_difference(&report, &reference);
                prop_assert!(difference.is_none(), "{:?} step {}: {:?}", scope, step, difference);
                let cold = pipeline(scope, p)
                    .cycle(CycleInput {
                        connector: &lake,
                        observer: &mut FleetObserver::new(),
                        executor: &mut Untracked(NullExecutor),
                        now_ms,
                    })
                    .unwrap();
                let difference = reference_difference(&cold, &reference);
                prop_assert!(difference.is_none(), "cold {:?}: {:?}", scope, difference);
            }
        }
    }
}

/// The decision digest's definition: FNV-1a 64 over the little-endian
/// bytes of the round number, the cause, the dirty count consumed, then
/// each executed job's table uid.
fn fnv_digest(prior: Option<u64>, round: &RoundReport) -> u64 {
    let mut hash = prior.unwrap_or(0xcbf2_9ce4_8422_2325);
    let mut words = vec![round.round, round.cause as u64, round.dirty_consumed as u64];
    words.extend(round.report.executed.iter().map(|j| j.id.table_uid));
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One seeded runtime stream: commits at splitmix-drawn tables and
/// times, every round checked against the reference over the runtime's
/// own observation. Returns the stream's digest and its round count.
fn runtime_stream(seed: u64) -> (u64, usize) {
    const N: u64 = 40;
    let lake = Lake::new(N);
    let mut rt = ContinuousRuntime::new(
        pipeline(ScopeStrategy::Hybrid, 0),
        RuntimeConfig {
            dirty_watermark: Some(5),
            max_staleness_ms: Some(4_000),
            min_round_interval_ms: 500,
            ..RuntimeConfig::default()
        },
    );
    let (ref_filters, ref_traits) = (filters(), traits());
    let mut exec = Untracked(NullExecutor);
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let (mut digest, mut rounds, mut at_ms) = (None, 0, 0u64);
    for _ in 0..300 {
        at_ms += next() % 400;
        let table_uid = next() % N;
        lake.write(table_uid);
        let event = RuntimeEvent::Commit { at_ms, table_uid };
        let Some(round) = rt.handle_event(&event, &lake, &mut exec).unwrap() else {
            continue;
        };
        let observation = rt.observer().last().unwrap();
        let reference = reference_cycle(
            observation,
            &ref_filters,
            &ref_traits,
            &policy(0),
            round.at_ms,
        );
        let difference = reference_difference(&round.report, &reference);
        assert_eq!(difference, None, "seed {seed}, round {}", round.round);
        let folded = round.fold_digest(digest);
        assert_eq!(folded, fnv_digest(digest, &round), "round {}", round.round);
        digest = Some(folded);
        rounds += 1;
    }
    (digest.expect("the stream ran rounds"), rounds)
}

#[test]
fn a_seeded_runtime_stream_matches_the_reference_and_its_digest() {
    for seed in [1, 2, 3] {
        let (digest, rounds) = runtime_stream(seed);
        assert!(rounds >= 20, "seed {seed}: only {rounds} rounds");
        assert_eq!(
            runtime_stream(seed),
            (digest, rounds),
            "seed {seed} is not stable"
        );
    }
}
