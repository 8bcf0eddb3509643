//! §5 triggers and the §3.3 feedback loop through the full stack:
//! periodic cycles, optimize-after-write hooks, and estimator calibration
//! from maintenance outcomes.

use autocomp::{
    AfterWriteHook, AutoComp, AutoCompConfig, ComputeCostGbhr, CycleInput, FileCountReduction,
    FleetObserver, HookAction, HookMode, JobRuntimeConfig, PeriodicTrigger, RankingPolicy,
    ScopeStrategy, TraitWeight,
};
use autocomp_lakesim::hooks::{evaluate_hook, written_tables};
use autocomp_lakesim::{share, LakesimConnector, LakesimExecutor};
use lakesim_catalog::TablePolicy;
use lakesim_engine::{EnvConfig, FileSizePlan, SimEnv, WriteSpec, MS_PER_HOUR};
use lakesim_lst::{ColumnType, Field, PartitionKey, PartitionSpec, Schema, TableProperties};
use lakesim_storage::MB;

fn env_with_table() -> (SimEnv, lakesim_lst::TableId) {
    let mut env = SimEnv::new(EnvConfig {
        seed: 61,
        ..EnvConfig::default()
    });
    env.create_database("db", "tenant", None).unwrap();
    let schema = Schema::new(vec![Field::new(1, "k", ColumnType::Int64, true)]).unwrap();
    let t = env
        .create_table(
            "db",
            "t",
            schema,
            PartitionSpec::unpartitioned(),
            TableProperties::default(),
            TablePolicy {
                min_age_ms: 0,
                ..TablePolicy::default()
            },
        )
        .unwrap();
    (env, t)
}

#[test]
fn periodic_trigger_drives_hourly_cycles() {
    let mut trigger = PeriodicTrigger::new(MS_PER_HOUR);
    let mut fired = Vec::new();
    for minute in 0..180u64 {
        let now = minute * 60_000;
        if trigger.should_fire(now) {
            trigger.fired(now);
            fired.push(now);
        }
    }
    assert_eq!(fired, vec![0, MS_PER_HOUR, 2 * MS_PER_HOUR]);
}

#[test]
fn after_write_hook_triggers_through_connector() {
    let (mut env, t) = env_with_table();
    let spec = WriteSpec::insert(
        t,
        PartitionKey::unpartitioned(),
        128 * MB,
        FileSizePlan::trickle(),
        "query",
    );
    env.submit_write(&spec, 0).unwrap();
    let events = env.drain_all();
    let written = written_tables(&events);
    assert_eq!(written, vec![t]);

    let shared = share(env);
    let hook = AfterWriteHook::new(
        HookMode::Immediate,
        Box::new(FileCountReduction::default()),
        5.0,
    );
    let actions = evaluate_hook(&shared, &hook, &written);
    assert_eq!(actions.len(), 1);
    assert_eq!(actions[0].1, HookAction::TriggerNow);
}

#[test]
fn tracked_feedback_calibrates_predictions() {
    let (mut env, t) = env_with_table();
    for i in 0..3u64 {
        let spec = WriteSpec::insert(
            t,
            PartitionKey::unpartitioned(),
            256 * MB,
            FileSizePlan::trickle(),
            "query",
        );
        env.submit_write(&spec, i * MS_PER_HOUR).unwrap();
    }
    env.drain_all();

    let shared = share(env);
    let mut pipeline = AutoComp::new(AutoCompConfig {
        scope: ScopeStrategy::Table,
        policy: RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("file_count_reduction", 0.7),
                TraitWeight::new("compute_cost_gbhr", 0.3),
            ],
            k: 1,
        },
        trigger_label: "periodic".to_string(),
        calibrate: true,
    })
    .with_trait(Box::new(FileCountReduction::default()))
    .with_trait(Box::new(ComputeCostGbhr::default()))
    .with_job_tracker(JobRuntimeConfig::default());

    // Cycle 1 compacts; the job's commit lands; cycle 2 settles it, and
    // the tracker feeds the outcome back.
    let connector = LakesimConnector::new(shared.clone());
    let mut executor = LakesimExecutor::new(shared.clone());
    let mut cycle = |now_ms| {
        pipeline
            .cycle(CycleInput {
                connector: &connector,
                observer: &mut FleetObserver::new(),
                executor: &mut executor,
                now_ms,
            })
            .unwrap()
    };
    let report1 = cycle(4 * MS_PER_HOUR);
    assert_eq!(report1.executed.len(), 1);
    shared.borrow_mut().drain_all();
    let report2 = cycle(5 * MS_PER_HOUR);
    assert_eq!(report2.ledger.succeeded, 1);
    // Calibration factors now reflect the observed prediction error.
    let feedback = pipeline.feedback();
    assert!(feedback.cost_bias().is_some());
    assert!(feedback.cost_calibration() > 0.0);
    // The §7 direction: compute cost is under-estimated, so the
    // calibration factor scales predictions up.
    assert!(
        feedback.cost_calibration() > 1.0,
        "cost calibration {} should scale up",
        feedback.cost_calibration()
    );
}
