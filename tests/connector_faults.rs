//! Observe-boundary fault-injection suite: the reconvergence contract.
//!
//! Drives the *real* lakesim connector, wrapped in the test-side fault
//! injector (`common::faults::Faulted`), through scripted and randomized
//! observe-side fault schedules and pins the degradation contract end to
//! end:
//!
//! * stats faults carry the prior entry forward and quarantine the table
//!   with backoff; a healed read re-converges bit-identically;
//! * listing faults reuse the prior listing (stale) and re-list once the
//!   read heals;
//! * changelog read faults retry in-pass; a retention overflow
//!   (`changes_since → None`) or an exhausted fault forces one full
//!   observe with its cause pinned on telemetry;
//! * [`CommitEventBridge`] overflow degrades to `Flush` and the covering
//!   round is classified `Degraded` by the runtime's health machine;
//! * a chaos soak (seeded + proptest-randomized): after the fault
//!   schedule heals, observations **and** `CycleReport`s become
//!   bit-identical to a never-faulted twin running over the same lake;
//! * the injector itself: an injected fault is `Err` and a vanished
//!   table `Ok(None)`, and with nothing armed it observes exactly like
//!   the lake it wraps, incremental passes included.
//!
//! Both twins share one environment: lakesim stats are pure functions of
//! lake state, so the comparison is exact, never "close enough".

use autocomp::{
    telemetry::names as tnames, AutoComp, AutoCompConfig, Candidate, CompactionExecutor,
    ComputeCostGbhr, ContinuousRuntime, CycleInput, CycleReport, DegradeReason, ExecutionResult,
    FallbackCause, FileCountReduction, FleetHealth, FleetObserver, LakeConnector, MinSizeFilter,
    ObserveFault, Prediction, RankingPolicy, RuntimeConfig, RuntimeEvent, ScopeStrategy,
    TraitWeight, Untracked,
};
use autocomp_lakesim::{share, CommitEventBridge, LakesimConnector, SharedEnv};
use lakesim_catalog::TablePolicy;
use lakesim_engine::{EnvConfig, FileSizePlan, SimEnv, WriteSpec};
use lakesim_lst::{
    ColumnType, Field, PartitionKey, PartitionSpec, PartitionValue, Schema, TableId,
    TableProperties, Transform,
};
use lakesim_storage::MB;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

mod common;
use common::faults::{Faulted, ObserveFaultSchedule, SplitMix64};

fn schema() -> Schema {
    Schema::new(vec![
        Field::new(1, "k", ColumnType::Int64, true),
        Field::new(2, "ds", ColumnType::Date, true),
    ])
    .unwrap()
}

/// A lake with `tables` tables, each holding one initial write so every
/// table produces non-trivial stats. One database per table: the quota
/// signal is fetched alongside the stats, so a shared database would
/// make an entry's value depend on *when* it was fetched — per-table
/// databases keep every stat a pure function of the table's own state,
/// the precondition for exact twin comparisons.
fn setup(tables: usize) -> (SharedEnv, Vec<TableId>) {
    let mut env = SimEnv::new(EnvConfig {
        seed: 11,
        ..EnvConfig::default()
    });
    let ids: Vec<TableId> = (0..tables)
        .map(|i| {
            let db = format!("db{i}");
            env.create_database(&db, "tenant", None).unwrap();
            env.create_table(
                &db,
                &format!("t{i}"),
                schema(),
                PartitionSpec::single(2, Transform::Month, "m"),
                TableProperties::default(),
                TablePolicy::default(),
            )
            .unwrap()
        })
        .collect();
    let shared = share(env);
    for (i, id) in ids.iter().enumerate() {
        write(&shared, *id, (i as u64 + 1) * 100);
    }
    (shared, ids)
}

fn write(env: &SharedEnv, table: TableId, at_ms: u64) {
    let spec = WriteSpec::insert(
        table,
        PartitionKey::single(PartitionValue::Date(0)),
        8 * MB,
        FileSizePlan::trickle(),
        "query",
    );
    env.borrow_mut().submit_write(&spec, at_ms).unwrap();
    env.borrow_mut().drain_all();
}

/// No-op policy edit: bumps the catalog registry epoch (so the next
/// observe actually re-issues the listing read) without changing any
/// stats-relevant state.
fn bump_registry_epoch(env: &SharedEnv, table: TableId) {
    env.borrow_mut()
        .catalog
        .update_policy(table, |_| {})
        .unwrap();
}

/// Executor that never schedules anything: the cycles under comparison
/// must stay pure functions of the observation.
#[derive(Default)]
struct InertExecutor;

impl CompactionExecutor for InertExecutor {
    fn execute(&mut self, _c: &Candidate, _p: &Prediction, _now: u64) -> ExecutionResult {
        ExecutionResult::default()
    }
}

impl autocomp::TrackedExecutor for InertExecutor {
    fn poll(&mut self, _now: u64) -> Vec<autocomp::JobOutcome> {
        Vec::new()
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
            k: 6,
        },
        trigger_label: "faults".into(),
        calibrate: true,
    })
    .with_filter(Box::new(MinSizeFilter {
        min_total_bytes: 1 << 20,
        min_file_count: 0,
    }))
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
}

/// Bit-level report comparison (CycleReport has no PartialEq by design —
/// it owns f64 columns compared here via `to_bits`).
fn reports_identical(a: &CycleReport, b: &CycleReport, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(common::report_difference(a, b), None, "{}", ctx);
    Ok(())
}

/// A faulted pipeline and its never-faulted twin over ONE shared lake:
/// the reconvergence comparisons are exact because lakesim stats are
/// pure functions of environment state.
struct TwinRig {
    env: SharedEnv,
    ids: Vec<TableId>,
    /// The faulted twin's connector: the lake inside the fault injector.
    script: Faulted<LakesimConnector>,
    clean: LakesimConnector,
    obs_f: FleetObserver,
    obs_c: FleetObserver,
    ac_f: AutoComp,
    ac_c: AutoComp,
}

impl TwinRig {
    fn new(tables: usize) -> Self {
        let (env, ids) = setup(tables);
        let script = Faulted::new(LakesimConnector::new(env.clone()));
        let clean = LakesimConnector::new(env.clone());
        TwinRig {
            env,
            ids,
            script,
            clean,
            obs_f: FleetObserver::new(),
            obs_c: FleetObserver::new(),
            ac_f: pipeline(),
            ac_c: pipeline(),
        }
    }

    /// One incremental cycle on both twins; panics on pipeline error.
    fn cycle(&mut self, now: u64) -> (CycleReport, CycleReport) {
        self.try_cycle(now).expect("cycle failed")
    }

    /// One incremental cycle on both twins, proptest-flavored.
    fn try_cycle(&mut self, now: u64) -> Result<(CycleReport, CycleReport), TestCaseError> {
        let mut exec = Untracked(InertExecutor);
        let f = self
            .ac_f
            .cycle(CycleInput {
                connector: &self.script,
                observer: &mut self.obs_f,
                executor: &mut exec,
                now_ms: now,
            })
            .map_err(|e| TestCaseError::fail(format!("faulted cycle at {now}: {e}")))?;
        let mut exec = Untracked(InertExecutor);
        let c = self
            .ac_c
            .cycle(CycleInput {
                connector: &self.clean,
                observer: &mut self.obs_c,
                executor: &mut exec,
                now_ms: now,
            })
            .map_err(|e| TestCaseError::fail(format!("clean cycle at {now}: {e}")))?;
        Ok((f, c))
    }
}

#[test]
fn stats_fault_carries_forward_then_quarantine_heals() {
    let mut rig = TwinRig::new(6);
    rig.cycle(1_000);
    assert_eq!(rig.obs_f.last(), rig.obs_c.last(), "cold pass parity");

    // A write makes table 2 dirty; its stats read faults.
    write(&rig.env, rig.ids[2], 10_000);
    rig.script
        .fault_stats(rig.ids[2].0, ObserveFault::transient("stats endpoint 503"));
    rig.cycle(20_000);
    let deg = rig.obs_f.last().unwrap().degradation().clone();
    assert_eq!(deg.stats_faults, 1);
    assert_eq!(deg.carried_entries(), 1);
    assert_eq!(deg.quarantine_depth(), 1);
    let q = deg.quarantine.get(&rig.ids[2].0).expect("quarantined uid");
    assert_eq!(q.attempts, 1);
    assert!(q.carried, "first fault carries, never retires");
    assert_eq!(q.release_pass, deg.pass + 1, "default backoff is one pass");
    assert_eq!(
        deg.reasons(),
        vec![DegradeReason::CarryForward, DegradeReason::Quarantine]
    );
    // The carried entry is the stale pre-write value: the twins diverge
    // for exactly this pass.
    assert_ne!(
        rig.obs_f.last(),
        rig.obs_c.last(),
        "carried entry must be stale"
    );

    // Script drained = infrastructure healed. The quarantine backoff
    // expires, the table is force-dirtied, and the refetch reconverges.
    assert!(rig.script.drained());
    let (rf, rc) = rig.cycle(30_000);
    let deg = rig.obs_f.last().unwrap().degradation();
    assert!(deg.quarantine.is_empty(), "quarantine released: {deg:?}");
    assert!(!deg.is_degraded());
    assert_eq!(rig.obs_f.last(), rig.obs_c.last(), "post-heal parity");
    reports_identical(&rf, &rc, "post-heal cycle").unwrap();
}

#[test]
fn listing_fault_reuses_stale_listing_then_relists_after_heal() {
    let mut rig = TwinRig::new(4);
    rig.cycle(1_000);

    // A fifth table appears (registry epoch bump), but the faulted
    // twin's listing read is down.
    rig.env
        .borrow_mut()
        .create_database("db-late", "tenant", None)
        .unwrap();
    let new_id = rig
        .env
        .borrow_mut()
        .create_table(
            "db-late",
            "t-late",
            schema(),
            PartitionSpec::single(2, Transform::Month, "m"),
            TableProperties::default(),
            TablePolicy::default(),
        )
        .unwrap();
    write(&rig.env, new_id, 10_000);
    rig.script
        .fault_listing(ObserveFault::permanent("catalog listing denied"));
    rig.cycle(20_000);
    let deg = rig.obs_f.last().unwrap().degradation().clone();
    assert!(deg.listing_stale_passes >= 1, "{deg:?}");
    assert!(deg.reasons().contains(&DegradeReason::ListingStale));
    assert!(!deg.stalled, "a prior listing exists to carry");
    // The stale listing hides the new table from the faulted twin only.
    assert_eq!(rig.obs_f.last().unwrap().to_candidates().len(), 4);
    assert_eq!(rig.obs_c.last().unwrap().to_candidates().len(), 5);

    // Healed: the carried listing kept its stale epoch, so the next pass
    // re-lists and picks the new table up as a fresh fetch.
    let (rf, rc) = rig.cycle(30_000);
    let deg = rig.obs_f.last().unwrap().degradation();
    assert_eq!(deg.listing_stale_passes, 0, "{deg:?}");
    assert!(!deg.is_degraded());
    assert_eq!(rig.obs_f.last(), rig.obs_c.last(), "post-heal parity");
    reports_identical(&rf, &rc, "post-heal cycle").unwrap();
}

#[test]
fn changelog_faults_retry_then_fall_back_to_full_observe() {
    let mut rig = TwinRig::new(5);
    rig.cycle(1_000);

    // Transient changelog fault: retried within the pass, no fallback,
    // and the cycle stays bit-identical to the clean twin.
    write(&rig.env, rig.ids[1], 5_000);
    rig.script
        .fault_changelog(ObserveFault::transient("changelog tail timeout"));
    let (rf, rc) = rig.cycle(10_000);
    let deg = rig.obs_f.last().unwrap().degradation().clone();
    assert_eq!(deg.changelog_retries, 1, "{deg:?}");
    assert_eq!(deg.fallback, None);
    assert_eq!(rig.obs_f.last(), rig.obs_c.last());
    reports_identical(&rf, &rc, "transient changelog retry").unwrap();

    // Mid-stream retention overflow (`changes_since → None`): definitive,
    // not retried — one full observe with the cause pinned. Satellite
    // contract: the full-observe fallback *cause* is observable.
    write(&rig.env, rig.ids[2], 15_000);
    rig.script.overflow_changelog();
    let (rf, rc) = rig.cycle(20_000);
    let deg = rig.obs_f.last().unwrap().degradation().clone();
    assert_eq!(deg.fallback, Some(FallbackCause::ChangelogOverflow));
    assert!(deg.reasons().contains(&DegradeReason::ChangelogFallback));
    let obs = rig.obs_f.last().unwrap();
    assert_eq!(obs.fetched_tables(), 5, "overflow forces a full observe");
    assert_eq!(rig.obs_f.last(), rig.obs_c.last(), "full observe is fresh");
    reports_identical(&rf, &rc, "overflow full observe").unwrap();

    // Exhausted (permanent) changelog fault: same full-observe fallback,
    // distinct cause.
    write(&rig.env, rig.ids[3], 25_000);
    rig.script
        .fault_changelog(ObserveFault::permanent("changelog unavailable"));
    let (rf, rc) = rig.cycle(30_000);
    let deg = rig.obs_f.last().unwrap().degradation().clone();
    assert_eq!(deg.fallback, Some(FallbackCause::ChangelogFault));
    reports_identical(&rf, &rc, "changelog fault fallback").unwrap();

    // Telemetry pins both causes and the in-pass retry counter.
    let rendered = rig.ac_f.telemetry().render_prometheus();
    for needle in [
        format!(
            "{}{{cause=\"changelog-overflow\"}} 1",
            tnames::OBSERVE_FULL_FALLBACK_TOTAL
        ),
        format!(
            "{}{{cause=\"changelog-fault\"}} 1",
            tnames::OBSERVE_FULL_FALLBACK_TOTAL
        ),
        format!(
            "{}{{kind=\"changelog\"}} 1",
            tnames::OBSERVE_READ_RETRIES_TOTAL
        ),
    ] {
        assert!(
            rendered.contains(&needle),
            "missing {needle:?} in:\n{rendered}"
        );
    }
}

#[test]
fn vanished_table_keeps_drop_semantics_under_fault_schedule() {
    // A drop and a stats fault on the same pass: the vanished table
    // surfaces as a drop (state), the faulted one as a carried entry
    // (fault) — they never blur.
    let mut rig = TwinRig::new(4);
    rig.cycle(1_000);

    rig.env.borrow_mut().catalog.drop_table(rig.ids[0]).unwrap();
    write(&rig.env, rig.ids[1], 10_000);
    rig.script
        .fault_stats(rig.ids[1].0, ObserveFault::transient("stats endpoint 503"));
    rig.cycle(20_000);
    let obs = rig.obs_f.last().unwrap();
    let deg = obs.degradation();
    assert_eq!(deg.quarantine_depth(), 1, "{deg:?}");
    assert!(deg.quarantine.contains_key(&rig.ids[1].0));
    assert!(
        !deg.quarantine.contains_key(&rig.ids[0].0),
        "a dropped table must not be quarantined"
    );
    assert_eq!(obs.to_candidates().len(), 3, "dropped table gone");

    // After healing, both twins agree the table is gone and table 1 is
    // fresh again.
    let (rf, rc) = rig.cycle(30_000);
    assert!(!rig.obs_f.last().unwrap().degradation().is_degraded());
    assert_eq!(rig.obs_f.last(), rig.obs_c.last());
    reports_identical(&rf, &rc, "post-drop post-heal").unwrap();
}

/// `CommitEventBridge` under a *real* retention overflow: the bridge
/// degrades to `Flush`, the covering round's observe hits the same
/// overflow (`FallbackCause::ChangelogOverflow`), and the runtime's
/// health machine classifies the round `Degraded` — then recovers.
#[test]
fn bridge_overflow_flush_drives_degraded_round_then_recovers() {
    let (env, ids) = setup(64);
    let connector = LakesimConnector::new(env.clone());
    let mut exec = InertExecutor;
    let config = RuntimeConfig {
        dirty_watermark: None,
        max_staleness_ms: None,
        gbhr_headroom: None,
        min_round_interval_ms: 0,
        snapshot_every_rounds: 0,
    };
    let mut rt = ContinuousRuntime::new(pipeline(), config);

    // Round 1 establishes the observer's change cursor.
    let r1 = rt
        .handle_event(
            &RuntimeEvent::Flush { at_ms: 10_000 },
            &connector,
            &mut exec,
        )
        .unwrap()
        .expect("flush fires a round");
    assert_eq!(r1.health, FleetHealth::Healthy);
    assert_eq!(rt.health(), &FleetHealth::Healthy);

    // The bridge tails from here; then the bounded changelog floods past
    // its retention while nobody drains.
    let mut bridge = CommitEventBridge::new(&env);
    for i in 0..(1u64 << 16) + 64 {
        write(&env, ids[(i % 64) as usize], 20_000 + i);
    }
    let events = bridge.drain(&env, 90_000_000);
    assert_eq!(
        events,
        vec![RuntimeEvent::Flush { at_ms: 90_000_000 }],
        "overflow degrades the bridge to a single flush"
    );

    // The covering round: the observer's own cursor fell out of
    // retention too, so the observe is a full fetch with the overflow
    // cause pinned, and the round is classified Degraded.
    let r2 = rt
        .handle_event(&events[0], &connector, &mut exec)
        .unwrap()
        .expect("bridge flush fires the covering round");
    let deg = rt.observer().last().unwrap().degradation();
    assert_eq!(deg.fallback, Some(FallbackCause::ChangelogOverflow));
    match &r2.health {
        FleetHealth::Degraded { reasons } => {
            assert!(
                reasons.contains(&DegradeReason::ChangelogFallback),
                "{reasons:?}"
            )
        }
        other => panic!("expected Degraded round, got {other:?}"),
    }
    assert_eq!(rt.health(), &r2.health);
    let rendered = rt.pipeline().telemetry().render_prometheus();
    let needle = format!(
        "{}{{cause=\"changelog-fallback\"}} 1",
        tnames::RUNTIME_DEGRADED_ROUNDS_TOTAL
    );
    assert!(
        rendered.contains(&needle),
        "missing {needle:?} in:\n{rendered}"
    );

    // Recovery: the next commit drains as a plain commit event and the
    // covering round is healthy again.
    write(&env, ids[0], 90_100_000);
    let events = bridge.drain(&env, 90_200_000);
    assert!(
        matches!(events[..], [RuntimeEvent::Commit { .. }]),
        "healed bridge emits commits again: {events:?}"
    );
    for event in &events {
        rt.handle_event(event, &connector, &mut exec).unwrap();
    }
    let r3 = rt
        .handle_event(
            &RuntimeEvent::Flush { at_ms: 90_300_000 },
            &connector,
            &mut exec,
        )
        .unwrap()
        .expect("flush fires a round");
    assert_eq!(r3.health, FleetHealth::Healthy);
    assert_eq!(rt.health(), &FleetHealth::Healthy);
    let rendered = rt.pipeline().telemetry().render_prometheus();
    let gauge = format!("{} 0", tnames::RUNTIME_HEALTH_STATE);
    assert!(
        rendered.contains(&gauge),
        "missing {gauge:?} in:\n{rendered}"
    );
}

/// The chaos soak: a seeded random fault schedule over tracked lake
/// churn, then a healing horizon. Contract: no panic ever; whenever the
/// degradation record reads clean, the faulted twin is *already*
/// bit-identical; and after healing the twins reconverge within the
/// quarantine backoff budget and stay identical.
fn run_chaos(seed: u64, permille: u32) -> Result<(), TestCaseError> {
    const TABLES: usize = 10;
    const FAULT_PASSES: u64 = 10;
    const MAX_HEAL_PASSES: u64 = 14;

    let mut rig = TwinRig::new(TABLES);
    let uids: Vec<u64> = rig.ids.iter().map(|t| t.0).collect();
    let schedule = ObserveFaultSchedule::random(seed, FAULT_PASSES, &uids, permille);
    let mut rng = SplitMix64::new(seed ^ 0x5eed_cafe);
    let mut now = 10_000u64;

    for pass in 0..FAULT_PASSES {
        for _ in 0..rng.below(3) {
            let uid = rng.below(TABLES as u64) as usize;
            write(&rig.env, rig.ids[uid], now);
            now += 100;
        }
        if pass % 4 == 3 {
            // Registry-epoch bump so scheduled listing faults are
            // actually consumed (an unchanged epoch reuses the prior
            // listing without a read).
            let uid = rng.below(TABLES as u64) as usize;
            bump_registry_epoch(&rig.env, rig.ids[uid]);
        }
        schedule.arm(pass, &rig.script);
        let (rf, rc) = rig.try_cycle(now)?;
        let deg = rig.obs_f.last().unwrap().degradation().clone();
        // Warm-state sanity: degradation accounting stays bounded by the
        // fleet, whatever the schedule does.
        prop_assert!(deg.quarantine_depth() <= TABLES, "{:?}", deg);
        prop_assert!(deg.carried_entries() + deg.retired_entries() == deg.quarantine_depth());
        // Clean-record equivalence: a pass that *claims* to be clean must
        // already be bit-identical to the never-faulted twin.
        if !deg.is_degraded() {
            prop_assert_eq!(
                rig.obs_f.last(),
                rig.obs_c.last(),
                "clean pass {} diverged",
                pass
            );
            reports_identical(&rf, &rc, &format!("clean fault-window pass {pass}"))?;
        }
        now += 10_000;
    }

    // Healing horizon: infrastructure recovers. Unconsumed faults (reads
    // never re-issued) vanish with it.
    rig.script.clear();
    let mut healed_streak = 0u32;
    for extra in 0..MAX_HEAL_PASSES {
        for _ in 0..rng.below(2) {
            let uid = rng.below(TABLES as u64) as usize;
            write(&rig.env, rig.ids[uid], now);
            now += 100;
        }
        let (rf, rc) = rig.try_cycle(now)?;
        let deg = rig.obs_f.last().unwrap().degradation().clone();
        if !deg.is_degraded() {
            prop_assert_eq!(
                rig.obs_f.last(),
                rig.obs_c.last(),
                "healed pass {} diverged",
                extra
            );
            reports_identical(&rf, &rc, &format!("healed pass {extra}"))?;
            healed_streak += 1;
            if healed_streak >= 2 {
                return Ok(());
            }
        } else {
            healed_streak = 0;
        }
        now += 10_000;
    }
    Err(TestCaseError::fail(format!(
        "seed {seed} permille {permille}: did not reconverge within {MAX_HEAL_PASSES} healing \
         passes; degradation: {:?}",
        rig.obs_f.last().unwrap().degradation()
    )))
}

#[test]
fn chaos_soak_reconverges_with_never_faulted_twin() {
    for seed in [11u64, 0xfeed, 987_654_321] {
        run_chaos(seed, 180).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: random fault schedules (listing, stats, changelog;
    /// transient and permanent) over tracked incremental cycles never
    /// panic, never mis-report warm state, and reconverge bit-identically
    /// with the fault-free twin once the schedule heals.
    #[test]
    fn chaos_random_schedules_reconverge(seed in 0u64..(1u64 << 48), permille in 40u32..220) {
        run_chaos(seed, permille)?;
    }
}

/// The vanish-vs-fault split at the injector: a table that is gone
/// answers `Ok(None)` with faults armed, and an injected fault answers
/// `Err`, one per read, on whichever stats shape the read asks for.
#[test]
fn injected_faults_never_masquerade_as_drops() {
    let (env, ids) = setup(1);
    let uid = ids[0].0;
    let connector = Faulted::new(LakesimConnector::new(env));
    // A genuinely missing table is a state signal even with faults
    // armed: `Ok(None)`, exactly the unfaulted drop path.
    assert!(matches!(connector.try_table_stats(999), Ok(None)));
    // A scripted fault is `Err` — the read failed, nothing vanished.
    connector.fault_stats(uid, ObserveFault::transient("stats endpoint 503"));
    assert!(connector.try_table_stats(uid).is_err());
    // One fault per read: the schedule drained, so the retry heals.
    assert!(connector.drained());
    assert!(matches!(connector.try_table_stats(uid), Ok(Some(_))));
    // Partition and snapshot shapes share the per-table queue.
    connector.fault_stats(uid, ObserveFault::permanent("acl revoked"));
    assert!(connector.try_partition_stats(uid).is_err());
    assert!(connector
        .try_snapshot_stats(uid, u64::MAX)
        .unwrap()
        .is_some());
}

/// With nothing armed the injector is invisible: over incremental
/// passes with writes, a registry-epoch bump and a new table in between,
/// a `Faulted` lake observes exactly what the lake it wraps does, through
/// the same changelog and the same listing reuse. The twin comparisons
/// above cannot see a lost forward: without the listing epoch or the
/// changelog every pass is a full observe, whose observation equals the
/// incremental one.
#[test]
fn an_unarmed_injector_observes_like_the_lake_it_wraps() {
    let (env, ids) = setup(6);
    let bare = LakesimConnector::new(env.clone());
    let faulted = Faulted::new(LakesimConnector::new(env.clone()));
    let (mut obs_b, mut obs_f) = (FleetObserver::new(), FleetObserver::new());
    for pass in 0..7u64 {
        let at = 10_000 * (pass + 1);
        match pass {
            1 => write(&env, ids[1], at),
            2 => bump_registry_epoch(&env, ids[3]),
            3 => {
                write(&env, ids[0], at);
                write(&env, ids[5], at + 1);
            }
            4 => {
                env.borrow_mut()
                    .create_database("db-late", "tenant", None)
                    .unwrap();
                let late = env
                    .borrow_mut()
                    .create_table(
                        "db-late",
                        "t-late",
                        schema(),
                        PartitionSpec::single(2, Transform::Month, "m"),
                        TableProperties::default(),
                        TablePolicy::default(),
                    )
                    .unwrap();
                write(&env, late, at);
            }
            _ => {}
        }
        let cursor = obs_b.last().and_then(|o| o.cursor());
        let b = obs_b.observe(&bare, ScopeStrategy::Hybrid).clone();
        let f = obs_f.observe(&faulted, ScopeStrategy::Hybrid).clone();
        let at = format!("pass {pass}");
        assert_eq!(f, b, "{at}");
        assert_eq!(f.cursor(), b.cursor(), "{at}");
        assert_eq!(f.listing_epoch(), b.listing_epoch(), "{at}");
        assert_eq!(f.fetched_tables(), b.fetched_tables(), "{at}");
        assert!(!f.degradation().is_degraded(), "{at}");
        assert!(b.cursor().is_some() && b.listing_epoch().is_some(), "{at}");
        if let Some(cursor) = cursor {
            assert_eq!(
                faulted.changes_since(cursor),
                bare.changes_since(cursor),
                "{at}"
            );
            assert!(
                b.fetched_tables() < b.table_count(),
                "{at}: an incremental pass fetches what changed"
            );
        }
    }
    let reads = faulted.take_reads();
    assert_eq!(reads.len(), 7, "every table was read through the injector");
    assert!(reads.values().all(|landed| *landed));
}
