//! Observe-path parity: the batched observe API must reproduce the
//! per-table pull path exactly — identical selections and bit-identical
//! scores — through every path:
//!
//! * the `observe` every `LakeConnector` inherits,
//! * an incremental (cursor) cycle that reuses the prior observation,
//!
//! across all four scope strategies; a dirty-set test proving that an
//! incremental observe re-fetches stats *only* for written tables; a
//! property harness over listings that gain, lose and move tables
//! between passes, with stats faults landing on the way; and pins of
//! what a runtime commit mark means whatever the listing does before
//! the round that consumes it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use autocomp::{
    AlreadyCompactFilter, AutoComp, AutoCompConfig, Candidate, CandidateFilter, CandidateStats,
    CompactionDisabledFilter, CompactionExecutor, ComputeCostGbhr, ContinuousRuntime, CycleInput,
    CycleReport, ExecutionResult, FileCountReduction, FleetObservation, FleetObserver,
    LakeConnector, ObserveFault, Prediction, RankingPolicy, RuntimeConfig, RuntimeEvent,
    ScopeStrategy, TableRef, TraitComputer, TraitWeight, Untracked,
};
use proptest::collection;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

mod common;
use common::faults::Faulted;
use common::reference::{reference_cycle, reference_difference};

const FLEET: u64 = 300;

/// Deterministic synthetic lake with a write changelog and fetch
/// counters. Stats depend only on `(uid, per-table version)`, so a
/// reused entry is exactly what a fresh fetch would produce for a quiet
/// table — the precondition for bit-parity of incremental cycles.
struct CountingLake {
    /// The listing, in listing order; `create` / `drop_at` / `rotate`
    /// edit it.
    listing: Mutex<Vec<TableRef>>,
    /// Reported as the listing epoch when present; bumped by every
    /// listing edit.
    epoch: Option<AtomicU64>,
    /// Per-table version by uid; grows with `create`.
    versions: Mutex<Vec<u64>>,
    log: Mutex<Vec<(u64, u64)>>, // (seq, uid)
    seq: AtomicU64,
    table_stat_calls: AtomicU64,
    partition_stat_calls: AtomicU64,
    snapshot_stat_calls: AtomicU64,
}

fn table_ref(uid: u64) -> TableRef {
    TableRef {
        table_uid: uid,
        database: format!("db{}", uid % 16).into(),
        name: format!("t{uid}").into(),
        partitioned: uid.is_multiple_of(3),
        compaction_enabled: !uid.is_multiple_of(17),
        is_intermediate: uid.is_multiple_of(23),
    }
}

impl CountingLake {
    fn new(n: u64) -> Self {
        CountingLake {
            listing: Mutex::new((0..n).map(table_ref).collect()),
            epoch: None,
            versions: Mutex::new(vec![0; n as usize]),
            log: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            table_stat_calls: AtomicU64::new(0),
            partition_stat_calls: AtomicU64::new(0),
            snapshot_stat_calls: AtomicU64::new(0),
        }
    }

    /// A lake that reports a listing epoch iff `epoch`.
    fn with_listing_epoch(n: u64, epoch: bool) -> Self {
        CountingLake {
            epoch: epoch.then(|| AtomicU64::new(0)),
            ..CountingLake::new(n)
        }
    }

    fn write(&self, uid: u64) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.log.lock().unwrap().push((seq, uid));
        self.versions.lock().unwrap()[uid as usize] += 1;
    }

    fn edit_listing(&self, edit: impl FnOnce(&mut Vec<TableRef>)) {
        edit(&mut self.listing.lock().unwrap());
        if let Some(epoch) = &self.epoch {
            epoch.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Lists a table under a uid never used before.
    fn create(&self) {
        let mut versions = self.versions.lock().unwrap();
        let uid = versions.len() as u64;
        versions.push(0);
        self.edit_listing(|listing| listing.push(table_ref(uid)));
    }

    /// Unlists the table at listing position `pick` (modulo the length).
    fn drop_at(&self, pick: u64) {
        self.edit_listing(|listing| {
            if !listing.is_empty() {
                listing.remove(pick as usize % listing.len());
            }
        });
    }

    /// Moves every table: the listing rotates left by `pick` positions.
    fn rotate(&self, pick: u64) {
        self.edit_listing(|listing| {
            let by = pick as usize % listing.len().max(1);
            listing.rotate_left(by);
        });
    }

    /// Uid of the table at listing position `pick` (modulo the length).
    fn listed_uid(&self, pick: u64) -> Option<u64> {
        let listing = self.listing.lock().unwrap();
        (!listing.is_empty()).then(|| listing[pick as usize % listing.len()].table_uid)
    }

    /// Uids handed out so far, dropped tables included.
    fn created(&self) -> u64 {
        self.versions.lock().unwrap().len() as u64
    }

    fn stats_for(&self, uid: u64) -> CandidateStats {
        let v = self.versions.lock().unwrap()[uid as usize];
        CandidateStats {
            file_count: 10 + (uid * 31) % 4000 + v * 17,
            small_file_count: (uid * 31) % 4000 + v * 13,
            small_bytes: (((uid * 71) % 2048) + v) << 20,
            total_bytes: (((uid * 131) % 8192) + v) << 20,
            target_file_size: 512 << 20,
            ..CandidateStats::default()
        }
    }

    fn stats_fetches(&self) -> u64 {
        self.table_stat_calls.load(Ordering::SeqCst)
            + self.partition_stat_calls.load(Ordering::SeqCst)
            + self.snapshot_stat_calls.load(Ordering::SeqCst)
    }
}

impl LakeConnector for CountingLake {
    fn list_tables(&self) -> Vec<TableRef> {
        self.listing.lock().unwrap().clone()
    }
    fn listing_epoch(&self) -> Option<u64> {
        self.epoch.as_ref().map(|e| e.load(Ordering::SeqCst))
    }
    fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
        self.table_stat_calls.fetch_add(1, Ordering::SeqCst);
        (uid < self.created()).then(|| self.stats_for(uid))
    }
    fn partition_stats(&self, uid: u64) -> Vec<(String, CandidateStats)> {
        self.partition_stat_calls.fetch_add(1, Ordering::SeqCst);
        if uid < self.created() && table_ref(uid).partitioned {
            (0..3)
                .map(|p| (format!("(d{p})"), self.stats_for(uid)))
                .collect()
        } else {
            Vec::new()
        }
    }
    fn snapshot_stats(&self, uid: u64, _window_ms: u64) -> Option<CandidateStats> {
        self.snapshot_stat_calls.fetch_add(1, Ordering::SeqCst);
        uid.is_multiple_of(2).then(|| self.stats_for(uid))
    }
    fn fleet_cursor(&self) -> Option<autocomp::ChangeCursor> {
        Some(autocomp::ChangeCursor(self.seq.load(Ordering::SeqCst)))
    }
    fn changes_since(&self, cursor: autocomp::ChangeCursor) -> Option<Vec<u64>> {
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

fn filters() -> Vec<Box<dyn CandidateFilter>> {
    vec![
        Box::new(CompactionDisabledFilter),
        Box::new(AlreadyCompactFilter {
            min_small_files: 2,
            min_small_fraction: 0.0,
        }),
    ]
}

fn traits() -> Vec<Box<dyn TraitComputer>> {
    vec![
        Box::new(FileCountReduction::default()),
        Box::new(ComputeCostGbhr::default()),
    ]
}

fn pipeline(scope: ScopeStrategy) -> AutoComp {
    let ac = AutoComp::new(AutoCompConfig {
        scope,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 25,
        },
        trigger_label: "parity".into(),
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

/// Deep bit-level comparison of two cycle reports: selections in order,
/// per-entry scores compared via `to_bits`, drop reasons, executed jobs,
/// and the rendered decision table.
fn assert_reports_identical(a: &CycleReport, b: &CycleReport, context: &str) {
    assert_eq!(common::report_difference(a, b), None, "{context}");
}

#[test]
fn observation_candidates_match_the_pull_path() {
    for scope in SCOPES {
        let lake = CountingLake::new(FLEET);
        let pulled = autocomp::scope::generate_candidates(&lake, scope);
        let observed = FleetObserver::new().observe(&lake, scope).to_candidates();
        assert_eq!(pulled, observed, "scope {scope:?}");
    }
}

#[test]
fn incremental_cycles_are_bit_identical_across_scopes() {
    for scope in SCOPES {
        let lake = CountingLake::new(FLEET);
        let mut observer = FleetObserver::new();
        let mut incremental_pipeline = pipeline(scope);

        // Cycle 1 (cold) seeds the observer.
        let cold = incremental_pipeline
            .cycle(CycleInput {
                connector: &lake,
                observer: &mut observer,
                executor: &mut Untracked(NullExecutor),
                now_ms: 0,
            })
            .unwrap();
        let pull_cold = pipeline(scope)
            .cycle(CycleInput {
                connector: &lake,
                observer: &mut FleetObserver::new(),
                executor: &mut Untracked(NullExecutor),
                now_ms: 0,
            })
            .unwrap();
        assert_reports_identical(&cold, &pull_cold, &format!("cold {scope:?}"));

        // Mutate a sparse dirty set, then compare the incremental cycle
        // against a full pull over the same state.
        for uid in [3, 57, 123, 123, 299] {
            lake.write(uid);
        }
        let incremental = incremental_pipeline
            .cycle(CycleInput {
                connector: &lake,
                observer: &mut observer,
                executor: &mut Untracked(NullExecutor),
                now_ms: 1,
            })
            .unwrap();
        let pull = pipeline(scope)
            .cycle(CycleInput {
                connector: &lake,
                observer: &mut FleetObserver::new(),
                executor: &mut Untracked(NullExecutor),
                now_ms: 1,
            })
            .unwrap();
        assert_reports_identical(&incremental, &pull, &format!("incremental {scope:?}"));
        let obs = observer.last().unwrap();
        assert_eq!(
            obs.fetched_tables(),
            4,
            "{scope:?}: exactly the distinct dirty tables re-fetched"
        );
        assert_eq!(obs.reused_tables(), FLEET as usize - 4);
    }
}

#[test]
fn incremental_observe_fetches_only_written_tables() {
    let lake = CountingLake::new(FLEET);
    let mut observer = FleetObserver::new();
    observer.observe(&lake, ScopeStrategy::Table);
    assert_eq!(
        lake.stats_fetches(),
        FLEET,
        "cold observe fetches the fleet"
    );

    let dirty = [7u64, 8, 9];
    for uid in dirty {
        lake.write(uid);
    }
    let before = lake.stats_fetches();
    let obs = observer.observe(&lake, ScopeStrategy::Table);
    assert_eq!(
        lake.stats_fetches() - before,
        dirty.len() as u64,
        "incremental observe must touch only the dirty set"
    );
    assert_eq!(obs.reused_tables(), FLEET as usize - dirty.len());
}

/// A table force-dirtied although **absent from the changelog** must be
/// re-fetched by the observe AND have its decide-state slots patched:
/// its filter verdicts and trait rows recompute even though no write was
/// logged. Pinned by counting filter evaluations per cycle.
#[test]
fn force_dirty_tables_invalidate_cycle_cache_rows() {
    use autocomp::{CandidateFilter, CandidateView, FilterDecision};
    use std::sync::Arc;

    /// Time-insensitive pass-through filter counting evaluations.
    struct CountingFilter(Arc<AtomicU64>);

    impl CandidateFilter for CountingFilter {
        fn name(&self) -> &str {
            "counting"
        }
        fn evaluate(&self, _c: &CandidateView<'_>, _now_ms: u64) -> FilterDecision {
            self.0.fetch_add(1, Ordering::SeqCst);
            FilterDecision::Keep
        }
        fn time_sensitive(&self) -> bool {
            false
        }
    }

    const N: u64 = 50;
    let lake = CountingLake::new(N);
    let evals = Arc::new(AtomicU64::new(0));
    // The counting filter goes FIRST so later dropping filters cannot
    // short-circuit past it: every filtered candidate counts exactly once.
    let mut ac = AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 25,
        },
        trigger_label: "parity".into(),
        calibrate: false,
    })
    .with_filter(Box::new(CountingFilter(evals.clone())))
    .with_filter(Box::new(CompactionDisabledFilter))
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()));
    let mut observer = FleetObserver::new();

    // Cold cycle: every candidate is filtered.
    ac.cycle(CycleInput {
        connector: &lake,
        observer: &mut observer,
        executor: &mut Untracked(NullExecutor),
        now_ms: 0,
    })
    .unwrap();
    let cold_evals = evals.swap(0, Ordering::SeqCst);
    assert!(cold_evals >= N, "cold cycle filters the fleet");

    // Quiet cycle (moving timestamp, time-insensitive chain): everything
    // splices — zero filter evaluations, zero stats fetches.
    let fetches_before = lake.stats_fetches();
    ac.cycle(CycleInput {
        connector: &lake,
        observer: &mut observer,
        executor: &mut Untracked(NullExecutor),
        now_ms: 1,
    })
    .unwrap();
    assert_eq!(evals.swap(0, Ordering::SeqCst), 0, "quiet cycle splices");
    assert_eq!(lake.stats_fetches(), fetches_before, "no re-fetch");
    assert_eq!(ac.cycle_cache_stats().spliced_tables, N as usize);

    // Force-dirty one table with a *quiet changelog*: exactly its stats
    // re-fetch and exactly its cache rows recompute.
    observer.mark_dirty(7);
    let fetches_before = lake.stats_fetches();
    ac.cycle(CycleInput {
        connector: &lake,
        observer: &mut observer,
        executor: &mut Untracked(NullExecutor),
        now_ms: 2,
    })
    .unwrap();
    assert_eq!(
        lake.stats_fetches() - fetches_before,
        1,
        "only the force-dirtied table re-fetches"
    );
    assert_eq!(
        evals.swap(0, Ordering::SeqCst),
        1,
        "only the force-dirtied table re-filters (its cache rows were invalidated)"
    );
    let stats = ac.cycle_cache_stats();
    assert_eq!(stats.recomputed_tables, 1);
    assert_eq!(stats.spliced_tables, N as usize - 1);

    // The recomputed rows re-enter the cache: the next quiet cycle is a
    // full splice again.
    ac.cycle(CycleInput {
        connector: &lake,
        observer: &mut observer,
        executor: &mut Untracked(NullExecutor),
        now_ms: 3,
    })
    .unwrap();
    assert_eq!(evals.swap(0, Ordering::SeqCst), 0);
    assert_eq!(ac.cycle_cache_stats().spliced_tables, N as usize);
}

/// A table-descriptor edit that never touches the write changelog — an
/// operator flipping `compaction_enabled` off — must still invalidate
/// the table's retained filter verdict: filters read descriptor fields,
/// so over a re-read listing the decide state compares each descriptor
/// instead of trusting the changelog alone.
#[test]
fn descriptor_edits_invalidate_cached_verdicts_without_a_changelog_write() {
    /// Lake whose policy flags can be edited out-of-band (no changelog).
    struct PolicyLake {
        inner: CountingLake,
        disabled: Mutex<std::collections::BTreeSet<u64>>,
    }

    impl LakeConnector for PolicyLake {
        fn list_tables(&self) -> Vec<TableRef> {
            let disabled = self.disabled.lock().unwrap();
            self.inner
                .list_tables()
                .into_iter()
                .map(|mut t| {
                    if disabled.contains(&t.table_uid) {
                        t.compaction_enabled = false;
                    }
                    t
                })
                .collect()
        }
        fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
            self.inner.table_stats(uid)
        }
        fn partition_stats(&self, uid: u64) -> Vec<(String, CandidateStats)> {
            self.inner.partition_stats(uid)
        }
        fn fleet_cursor(&self) -> Option<autocomp::ChangeCursor> {
            self.inner.fleet_cursor()
        }
        fn changes_since(&self, cursor: autocomp::ChangeCursor) -> Option<Vec<u64>> {
            self.inner.changes_since(cursor)
        }
    }

    let lake = PolicyLake {
        inner: CountingLake::new(30),
        disabled: Mutex::new(Default::default()),
    };
    let mut ac = pipeline(ScopeStrategy::Table);
    let mut observer = FleetObserver::new();
    let first = ac
        .cycle(CycleInput {
            connector: &lake,
            observer: &mut observer,
            executor: &mut Untracked(NullExecutor),
            now_ms: 0,
        })
        .unwrap();
    assert!(
        first.ranked.iter().any(|e| e.id.table_uid == 3),
        "table 3 ranks before the policy flip"
    );

    // Flip table 3's policy with a quiet changelog, then cycle again.
    lake.disabled.lock().unwrap().insert(3);
    let incremental = ac
        .cycle(CycleInput {
            connector: &lake,
            observer: &mut observer,
            executor: &mut Untracked(NullExecutor),
            now_ms: 1,
        })
        .unwrap();
    let cold = pipeline(ScopeStrategy::Table)
        .cycle(CycleInput {
            connector: &lake,
            observer: &mut FleetObserver::new(),
            executor: &mut Untracked(NullExecutor),
            now_ms: 1,
        })
        .unwrap();
    assert_reports_identical(&incremental, &cold, "post policy flip");
    assert!(
        incremental
            .dropped
            .iter()
            .any(|(id, reason)| id.table_uid == 3 && reason.contains("compaction-disabled")),
        "the flipped table's cached 'kept' verdict was invalidated"
    );
    let stats = ac.cycle_cache_stats();
    assert!(
        stats.recomputed_tables >= 1 && stats.spliced_tables >= 28,
        "only the edited table (and no quiet neighbors) recomputes: {stats:?}"
    );
}

// ---------------------------------------------------------------------
// The listing property harness: tables are created, dropped and moved
// between passes, with and without a listing epoch.
// ---------------------------------------------------------------------

/// One step of a listing scenario. A `pick` selects a listing position
/// (or, for `ForceDirty`, a uid among all ever created) modulo the
/// count.
#[derive(Debug, Clone)]
enum ListingOp {
    Write(u64),
    /// May name a dropped table: an unlisted dirty mark is ignored.
    ForceDirty(u64),
    Create,
    Drop(u64),
    Rotate(u64),
    /// Arms one stats fault on a listed table and writes it, so the next
    /// observe's fetch of it faults.
    Fault(u64),
    Observe,
}

fn listing_op_strategy() -> impl Strategy<Value = ListingOp> {
    prop_oneof![
        (0u64..1_000).prop_map(ListingOp::Write),
        (0u64..1_000).prop_map(ListingOp::Write),
        (0u64..1_000).prop_map(ListingOp::ForceDirty),
        (0u8..2).prop_map(|_| ListingOp::Create),
        (0u64..1_000).prop_map(ListingOp::Drop),
        (1u64..1_000).prop_map(ListingOp::Rotate),
        (0u64..1_000).prop_map(ListingOp::Fault),
        (0u8..2).prop_map(|_| ListingOp::Observe),
        (0u8..2).prop_map(|_| ListingOp::Observe),
    ]
}

/// What must hold after every observe pass, whatever the listing did
/// since `prior`. `lake` is the bare lake, the unfaulted view, and
/// `reads` are the pass's fallible stats reads through its fault
/// injector.
fn check_pass(
    lake: &CountingLake,
    prior: Option<&FleetObservation>,
    obs: &FleetObservation,
    reads: &BTreeMap<u64, bool>,
    context: &str,
) -> Result<(), TestCaseError> {
    let deg = obs.degradation();
    // Fresh ⇔ the entry came from the connector this pass: the read
    // answered, or it faulted and the entry retired instead of carrying.
    let mut fresh = 0;
    for (i, table) in obs.tables().iter().enumerate() {
        let uid = table.table_uid;
        let expect = match reads.get(&uid) {
            Some(true) => true,
            Some(false) => !deg.quarantine[&uid].carried,
            None => false,
        };
        prop_assert_eq!(obs.is_fresh(i), expect, "{context}: freshness of uid {uid}");
        fresh += expect as usize;
    }
    prop_assert_eq!(obs.fetched_tables(), fresh, "{context}: fetched");
    prop_assert_eq!(
        obs.reused_tables(),
        obs.table_count() - fresh,
        "{context}: reused"
    );
    for (uid, q) in &deg.quarantine {
        prop_assert!(
            !q.carried || prior.is_some_and(|p| p.position_of_uid(*uid).is_some()),
            "{context}: uid {uid} carried without a prior entry"
        );
    }
    // A quarantine record outlives a re-list for as long as its table
    // stays listed and its read has not answered.
    for uid in prior.iter().flat_map(|p| p.degradation().quarantine.keys()) {
        let listed = obs.position_of_uid(*uid).is_some();
        let healed = reads.get(uid) == Some(&true);
        prop_assert_eq!(
            deg.quarantine.contains_key(uid),
            listed && !healed,
            "{context}: quarantine record of uid {uid}"
        );
    }
    if !deg.is_degraded() {
        let cold = FleetObserver::new().observe(lake, obs.scope()).clone();
        prop_assert_eq!(
            obs.to_candidates(),
            cold.to_candidates(),
            "{context}: clean pass vs cold observe"
        );
    }
    Ok(())
}

fn run_listing_scenario(
    n: u64,
    ops: &[ListingOp],
    scope: ScopeStrategy,
    epoch: bool,
) -> Result<(), TestCaseError> {
    let faulted = Faulted::new(CountingLake::with_listing_epoch(n, epoch));
    let lake = faulted.inner();
    let mut observer = FleetObserver::new();
    for (step, op) in ops.iter().chain([&ListingOp::Observe]).enumerate() {
        match op {
            ListingOp::Write(pick) | ListingOp::Fault(pick) => {
                if let Some(uid) = lake.listed_uid(*pick) {
                    if matches!(op, ListingOp::Fault(_)) {
                        faulted.fault_stats(uid, ObserveFault::transient("store hiccup"));
                    }
                    lake.write(uid);
                }
            }
            ListingOp::ForceDirty(pick) => observer.mark_dirty(pick % lake.created()),
            ListingOp::Create => lake.create(),
            ListingOp::Drop(pick) => lake.drop_at(*pick),
            ListingOp::Rotate(pick) => lake.rotate(*pick),
            ListingOp::Observe => {
                let prior = observer.last().cloned();
                faulted.take_reads();
                let obs = observer.observe(&faulted, scope).clone();
                let context = format!("{scope:?}, epoch {epoch}, step {step}");
                check_pass(lake, prior.as_ref(), &obs, &faulted.take_reads(), &context)?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Incremental observes over a listing that changes between passes:
    /// freshness, quarantine carry and — on every clean pass — equality
    /// with a cold observe, across all four scopes, with the listing
    /// shared under an epoch and re-read without one.
    #[test]
    fn observes_over_a_changing_listing_match_cold_observes(
        n in 1u64..24,
        ops in collection::vec(listing_op_strategy(), 1..40),
    ) {
        for scope in SCOPES {
            for epoch in [true, false] {
                run_listing_scenario(n, &ops, scope, epoch)?;
            }
        }
    }
}

/// The pipeline twin of [`run_listing_scenario`]: every pass cycles an
/// incremental pipeline over the retained observer and a cold pipeline
/// over a fresh observe, and their reports must be identical — so the
/// cycle cache's runs splice correctly over created, dropped and moved
/// tables (remapped runs included). `Fault` ops act as plain writes.
fn run_listing_pipeline_scenario(
    n: u64,
    ops: &[ListingOp],
    scope: ScopeStrategy,
    epoch: bool,
) -> Result<(), TestCaseError> {
    let lake = CountingLake::with_listing_epoch(n, epoch);
    let mut observer = FleetObserver::new();
    let mut incremental = pipeline(scope);
    let (ref_filters, ref_traits) = (filters(), traits());
    for (step, op) in ops.iter().chain([&ListingOp::Observe]).enumerate() {
        match op {
            ListingOp::Write(pick) | ListingOp::Fault(pick) => {
                if let Some(uid) = lake.listed_uid(*pick) {
                    lake.write(uid);
                }
            }
            ListingOp::ForceDirty(pick) => observer.mark_dirty(pick % lake.created()),
            ListingOp::Create => lake.create(),
            ListingOp::Drop(pick) => lake.drop_at(*pick),
            ListingOp::Rotate(pick) => lake.rotate(*pick),
            ListingOp::Observe => {
                let now_ms = step as u64;
                let warm = incremental
                    .cycle(CycleInput {
                        connector: &lake,
                        observer: &mut observer,
                        executor: &mut Untracked(NullExecutor),
                        now_ms,
                    })
                    .unwrap();
                let cold = pipeline(scope)
                    .cycle(CycleInput {
                        connector: &lake,
                        observer: &mut FleetObserver::new(),
                        executor: &mut Untracked(NullExecutor),
                        now_ms,
                    })
                    .unwrap();
                let reference = reference_cycle(
                    observer.last().expect("the warm cycle observed"),
                    &ref_filters,
                    &ref_traits,
                    &incremental.config().policy,
                    now_ms,
                );
                let difference = reference_difference(&warm, &reference);
                prop_assert!(
                    difference.is_none(),
                    "{:?}, epoch {}, step {}: against the reference cycle: {:?}",
                    scope,
                    epoch,
                    step,
                    difference
                );
                prop_assert_eq!(
                    common::report_difference(&warm, &cold),
                    None,
                    "{scope:?}, epoch {epoch}, step {step}"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Incremental cycles over a listing that changes between passes
    /// report exactly what cold cycles do, across all four scopes, with
    /// the listing shared under an epoch and re-read without one.
    #[test]
    fn cycles_over_a_changing_listing_match_cold_cycles(
        n in 1u64..24,
        ops in collection::vec(listing_op_strategy(), 1..40),
    ) {
        for scope in SCOPES {
            for epoch in [true, false] {
                run_listing_pipeline_scenario(n, &ops, scope, epoch)?;
            }
        }
    }
}

/// A pass need not patch anything to re-map its prior: one that only
/// loses tables fetches nothing and still passes every check.
#[test]
fn dropping_half_the_fleet_with_no_write_in_between_passes_every_check() {
    const N: u64 = 64;
    for epoch in [true, false] {
        let faulted = Faulted::new(CountingLake::with_listing_epoch(N, epoch));
        let lake = faulted.inner();
        let mut observer = FleetObserver::new();
        observer.observe(&faulted, ScopeStrategy::Table);
        // Rewrite the first half, then drop the second.
        (0..N / 2).for_each(|uid| lake.write(uid));
        let obs = observer.observe(&faulted, ScopeStrategy::Table);
        (0..N / 2).for_each(|_| lake.drop_at(N / 2));
        let prior = obs.clone();
        faulted.take_reads();
        let obs = observer.observe(&faulted, ScopeStrategy::Table).clone();
        assert_eq!(obs.table_count() as u64, N / 2);
        assert_eq!(obs.fetched_tables(), 0, "nothing was written");
        check_pass(
            lake,
            Some(&prior),
            &obs,
            &faulted.take_reads(),
            "half dropped",
        )
        .unwrap();
    }
}

// ---------------------------------------------------------------------
// Commit marks through the runtime: the backlog counts distinct uids,
// and the covering round observes exactly what a cold observe does,
// whatever the listing did since the marks were made.
// ---------------------------------------------------------------------

/// A runtime whose rounds fire only on a flush.
fn flush_only_runtime() -> ContinuousRuntime {
    ContinuousRuntime::new(
        pipeline(ScopeStrategy::Table),
        RuntimeConfig {
            dirty_watermark: None,
            max_staleness_ms: None,
            gbhr_headroom: None,
            min_round_interval_ms: 0,
            snapshot_every_rounds: 0,
        },
    )
}

/// One commit event per uid. Only the event marks the table; the lake's
/// changelog sees just what the test writes.
fn commit(rt: &mut ContinuousRuntime, lake: &CountingLake, at_ms: u64, uids: &[u64]) {
    for uid in uids {
        let event = RuntimeEvent::Commit {
            at_ms,
            table_uid: *uid,
        };
        let fired = rt
            .handle_event(&event, lake, &mut Untracked(NullExecutor))
            .unwrap();
        assert!(fired.is_none(), "only a flush fires a round");
    }
}

/// Runs the covering round: it consumes `backlog` marks, fetches every
/// listed position of a `marked` uid, and observes what a cold observe
/// does.
fn flush_matches_cold(
    rt: &mut ContinuousRuntime,
    lake: &CountingLake,
    at_ms: u64,
    backlog: usize,
    marked: &[u64],
    context: &str,
) {
    assert_eq!(rt.dirty_backlog(), backlog, "{context}: distinct marks");
    let round = rt
        .handle_event(
            &RuntimeEvent::Flush { at_ms },
            lake,
            &mut Untracked(NullExecutor),
        )
        .unwrap()
        .expect("a flush always fires");
    assert_eq!(round.dirty_consumed, backlog, "{context}: consumed");
    assert_eq!(rt.dirty_backlog(), 0, "{context}: nothing left pending");
    let obs = rt.observer().last().unwrap();
    for (i, table) in obs.tables().iter().enumerate() {
        if marked.contains(&table.table_uid) {
            assert!(
                obs.is_fresh(i),
                "{context}: uid {} fetched",
                table.table_uid
            );
        }
    }
    let cold = FleetObserver::new()
        .observe(lake, ScopeStrategy::Table)
        .clone();
    assert_eq!(*obs, cold, "{context}: round vs cold observe");
}

#[test]
fn marks_before_the_first_observe_count_once_and_the_round_matches_cold() {
    for epoch in [true, false] {
        let lake = CountingLake::with_listing_epoch(FLEET, epoch);
        let mut rt = flush_only_runtime();
        lake.write(3);
        commit(&mut rt, &lake, 1_000, &[3, 5, 3]);
        flush_matches_cold(&mut rt, &lake, 2_000, 2, &[3, 5], "before the first");
    }
}

#[test]
fn duplicate_marks_count_once_and_the_round_matches_cold() {
    for epoch in [true, false] {
        let lake = CountingLake::with_listing_epoch(FLEET, epoch);
        let mut rt = flush_only_runtime();
        flush_matches_cold(&mut rt, &lake, 1_000, 0, &[], "cold");
        lake.write(7);
        lake.write(7);
        commit(&mut rt, &lake, 1_500, &[7, 7, 8, 7]);
        flush_matches_cold(&mut rt, &lake, 2_000, 2, &[7, 8], "duplicates");
        assert_eq!(rt.observer().last().unwrap().fetched_tables(), 2);
    }
}

#[test]
fn a_mark_for_a_never_listed_uid_counts_and_fetches_nothing() {
    for epoch in [true, false] {
        let lake = CountingLake::with_listing_epoch(FLEET, epoch);
        let mut rt = flush_only_runtime();
        flush_matches_cold(&mut rt, &lake, 1_000, 0, &[], "cold");
        commit(&mut rt, &lake, 1_500, &[FLEET + 50, 4, FLEET + 50]);
        flush_matches_cold(&mut rt, &lake, 2_000, 2, &[4], "never listed");
        assert_eq!(
            rt.observer().last().unwrap().fetched_tables(),
            1,
            "the unlisted mark fetches nothing"
        );
    }
}

#[test]
fn a_mark_for_a_table_that_moves_follows_it_to_its_new_position() {
    for epoch in [true, false] {
        let lake = CountingLake::with_listing_epoch(FLEET, epoch);
        let mut rt = flush_only_runtime();
        flush_matches_cold(&mut rt, &lake, 1_000, 0, &[], "cold");
        lake.write(10);
        commit(&mut rt, &lake, 1_500, &[10, 11]);
        // Every table moves: position 10 now lists uid 15.
        lake.rotate(5);
        flush_matches_cold(&mut rt, &lake, 2_000, 2, &[10, 11], "moved");
        let obs = rt.observer().last().unwrap();
        assert_eq!(obs.position_of_uid(10), Some(5));
        assert_eq!(obs.fetched_tables(), 2, "the marks, at their new positions");
    }
}

#[test]
fn a_mark_for_a_table_the_relisting_drops_counts_until_the_round() {
    for epoch in [true, false] {
        let lake = CountingLake::with_listing_epoch(FLEET, epoch);
        let mut rt = flush_only_runtime();
        flush_matches_cold(&mut rt, &lake, 1_000, 0, &[], "cold");
        lake.write(13);
        commit(&mut rt, &lake, 1_500, &[12, 13]);
        // Position 12 lists uid 12.
        lake.drop_at(12);
        flush_matches_cold(&mut rt, &lake, 2_000, 2, &[13], "dropped");
        let obs = rt.observer().last().unwrap();
        assert_eq!(obs.position_of_uid(12), None);
        assert_eq!(obs.position_of_uid(13), Some(12), "moved up one");
        assert_eq!(obs.fetched_tables(), 1, "only the surviving mark");
    }
}
