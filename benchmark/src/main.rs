//! The repository's benchmark: one workload per process, timed from
//! outside through public functions only. See `README.md`.
//!
//! `autocomp_benchmark --workload W --seed N --seconds S --trace 0|1
//! [--out DIR] [--smoke]` prints every metric by name with its unit and
//! sample count, then one JSON object as the last line of standard
//! output; it exits non-zero when an output check failed.

mod drive;
mod lake;
mod report;
mod seam;
mod synth;

use std::path::PathBuf;
use std::time::Instant;

use std::rc::Rc;

use drive::{timed_world, Driver, Plan, Recorder, Source, World};
use lake::LakeSizes;
use seam::{LakeConnector, SeamStats, TrackedExecutor};
use synth::SynthSizes;

pub const WORKLOADS: [&str; 4] = ["steady_1pct", "storm_50pct", "crash_restart", "lake_fleet"];

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// What one run produced, ready to be turned into metrics.
pub struct Outcome {
    pub rec: Recorder,
    pub seam: Rc<SeamStats>,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// The twin's decision digest over the prefix equals the main run's.
    pub twin_agrees: bool,
    /// Wall milliseconds of each prefix round in the traced and in the
    /// untraced run (the same rounds, paired by position).
    pub traced_round_ms: Vec<f64>,
    pub untraced_round_ms: Vec<f64>,
}

enum Shape {
    Synth(SynthSizes),
    Lake(LakeSizes),
}

/// Sizes and plan of a workload, at full or smoke scale. The reasons are
/// in `BENCHMARK.json` and `README.md`.
fn workload(name: &str, smoke: bool) -> Option<(Shape, Plan)> {
    let tables = if smoke { 2_000 } else { 100_000 };
    let steady = SynthSizes {
        tables,
        commits_per_tick: if smoke { 6 } else { 60 },
        dirty_watermark: tables / 100,
        k: 64,
    };
    let storm = SynthSizes {
        commits_per_tick: steady.commits_per_tick * 100,
        dirty_watermark: tables / 2,
        ..steady
    };
    let fleet = LakeSizes {
        databases: if smoke { 4 } else { 40 },
        tables_per_db: if smoke { 25 } else { 100 },
        dirty_watermark: if smoke { 10 } else { 200 },
        k: if smoke { 20 } else { 400 },
    };
    let synth = Plan {
        seed: 0,
        seconds: 0.0,
        traced: false,
        kill_in_timed: false,
        probe_period: if smoke { 2 } else { 8 },
        probe_crash_loop: 3,
        prefix: if smoke { 40 } else { 160 },
        setup_reps: 7,
        episode_units: None,
        kill_extra_max: (steady.dirty_watermark / 2) as u64,
    };
    let (shape, plan) = match name {
        "steady_1pct" => (Shape::Synth(steady), synth),
        // A storm round costs six steady ones: fewer of them (and of the
        // snapshots between probes), but past the first 60 simulated
        // seconds, when the first jobs settle.
        "storm_50pct" => (
            Shape::Synth(storm),
            Plan {
                probe_period: if smoke { 2 } else { 3 },
                prefix: if smoke { 12 } else { 48 },
                kill_extra_max: (storm.dirty_watermark / 2) as u64,
                ..synth
            },
        ),
        // The prefix is 16 restarts (about 200 rounds).
        "crash_restart" => (
            Shape::Synth(steady),
            Plan {
                kill_in_timed: true,
                probe_period: 1,
                prefix: if smoke { 4 } else { 16 },
                ..synth
            },
        ),
        // Ten-day episodes, a day per throughput window, and after each a
        // probe of five restarts at the start of its eleventh day: a day
        // older, a restart costs 10 % more.
        "lake_fleet" => (
            Shape::Lake(fleet),
            Plan {
                probe_crash_loop: 5,
                prefix: if smoke { 20 } else { 80 },
                setup_reps: 2,
                episode_units: Some(10),
                kill_extra_max: (fleet.dirty_watermark / 2) as u64,
                ..synth
            },
        ),
        _ => return None,
    };
    Some((shape, plan))
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload: set-up (several times, the last kept), the timed
/// section in the requested tracing mode — one open-ended episode, or
/// fixed-length episodes each on a fresh world and followed by a recovery
/// probe — then the twin of the prefix in the other mode, with a further
/// batch of set-ups before and after the twin.
fn run_with<L1, E1, L2, E2, S>(
    main_world: impl Fn(&Rc<SeamStats>) -> World<L1, E1, S>,
    twin_world: impl Fn(&Rc<SeamStats>) -> World<L2, E2, S>,
    plan: &Plan,
) -> Outcome
where
    L1: LakeConnector,
    E1: TrackedExecutor,
    L2: LakeConnector,
    E2: TrackedExecutor,
    S: Source,
{
    let mut setup_s = Vec::new();
    let mut boot = |rec: Recorder, seam: &Rc<SeamStats>| {
        let started = Instant::now();
        let driver = Driver::boot(main_world(seam), seam.clone(), plan, plan.traced, rec);
        setup_s.push(started.elapsed().as_secs_f64());
        driver
    };
    for _ in 1..plan.setup_reps {
        drop(boot(Recorder::new(), &Rc::default()));
    }
    let seam = Rc::new(SeamStats::default());
    let mut main = boot(Recorder::new(), &seam);
    loop {
        main.run_timed(plan);
        if plan.episode_units.is_none() {
            break;
        }
        main.run_probe(plan);
        if main.time_is_up(plan) {
            break;
        }
        main.finish();
        let rec = std::mem::take(&mut main.rec);
        drop(main);
        main = boot(rec, &seam);
    }
    // The high-water mark of the timed section and its probes: the twin
    // is a second world.
    let peak_rss_mb = peak_rss_mb();
    main.finish();
    let rec = std::mem::take(&mut main.rec);
    drop(main);
    for _ in 0..plan.setup_reps {
        drop(boot(Recorder::new(), &Rc::default()));
    }

    let mark = rec.prefix.clone().expect("the run covers its prefix");
    let twin_seam = Rc::new(SeamStats::default());
    let mut twin = Driver::boot(
        twin_world(&twin_seam),
        twin_seam.clone(),
        plan,
        !plan.traced,
        Recorder::new(),
    );
    twin.run_twin(plan, &mark);
    let twin_mark = twin.rec.prefix.clone().unwrap_or_default();
    let twin_agrees = twin_mark.rounds == mark.rounds && twin_mark.digest == mark.digest;
    drop(twin);
    for _ in 0..plan.setup_reps {
        drop(boot(Recorder::new(), &Rc::default()));
    }
    let (traced_round_ms, untraced_round_ms) = if plan.traced {
        (mark.round_ms, twin_mark.round_ms)
    } else {
        (twin_mark.round_ms, mark.round_ms)
    };
    Outcome {
        rec,
        seam,
        setup_s,
        peak_rss_mb,
        twin_agrees,
        traced_round_ms,
        untraced_round_ms,
    }
}

fn run_world<L, E, S>(make: impl Fn() -> World<L, E, S>, plan: &Plan) -> Outcome
where
    L: LakeConnector,
    E: TrackedExecutor,
    S: Source,
{
    if plan.traced {
        run_with(|seam| timed_world(make(), seam), |_| make(), plan)
    } else {
        run_with(|_| make(), |seam| timed_world(make(), seam), plan)
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let (shape, plan) = workload(&opts.workload, opts.smoke)
        .ok_or_else(|| format!("unknown workload {:?}; one of {WORKLOADS:?}", opts.workload))?;
    let plan = Plan {
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.traced,
        ..plan
    };
    Ok(match shape {
        Shape::Synth(sizes) => run_world(|| synth::world(sizes, opts.seed), &plan),
        Shape::Lake(sizes) => run_world(|| lake::world(sizes, opts.seed), &plan),
    })
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workload.is_empty() {
        return Err(format!("--workload is required; one of {WORKLOADS:?}"));
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|opts| {
        let outcome = run(&opts)?;
        report::emit(&opts, &outcome).map_err(|e| format!("writing results: {e}"))
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("autocomp_benchmark: {message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All four drivers, the three timed seams and every output check,
    /// at smoke scale, traced and untraced.
    #[test]
    fn smoke_runs_every_workload_both_ways() {
        for workload in WORKLOADS {
            for traced in [false, true] {
                let opts = Opts {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 0.2,
                    traced,
                    smoke: true,
                    out: None,
                };
                let outcome = run(&opts).expect("known workload");
                let (attempted, failed) = report::ops(&outcome);
                assert!(attempted > 0, "{workload}: nothing attempted");
                assert_eq!(failed, 0, "{workload} traced={traced}: failed checks");
                assert!(outcome.rec.recoveries > 0, "{workload}: no recovery ran");
                let metrics = if traced {
                    report::per_layer(&outcome)
                } else {
                    report::end_to_end(&outcome)
                };
                for (name, value, _) in &metrics {
                    assert!(value.is_finite(), "{workload}: {name} = {value}");
                }
                if traced {
                    assert!(outcome.seam.stats_calls.get() > 0, "TimedLake saw no call");
                    assert!(
                        outcome.seam.poll_calls.get() > 0,
                        "TimedExecutor saw no call"
                    );
                    assert!(
                        !outcome.rec.medium_write_ms.is_empty(),
                        "TimedMedium timed nothing"
                    );
                }
            }
        }
    }

    /// `BENCHMARK.json` names exactly the metrics the program reports,
    /// with their units, in order.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let opts = Opts {
            workload: "steady_1pct".into(),
            seed: 3,
            seconds: 0.05,
            traced: true,
            smoke: true,
            out: None,
        };
        let outcome = run(&opts).unwrap();
        let reported: Vec<String> = report::end_to_end(&outcome)
            .iter()
            .chain(&report::per_layer(&outcome))
            .map(|(name, _, unit)| format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\","))
            .collect();
        let listed: Vec<&str> = spec
            .lines()
            .map(str::trim)
            .filter(|line| line.starts_with("{\"name\": ") && line.contains("\"unit\""))
            .collect();
        assert_eq!(listed.len(), reported.len());
        for (listed, reported) in listed.iter().zip(&reported) {
            assert!(
                listed.starts_with(reported.as_str()),
                "{listed} vs {reported}"
            );
        }
        for workload in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{workload}\"")));
        }
    }

    #[test]
    fn same_seed_gives_the_same_deterministic_metrics() {
        let opts = Opts {
            workload: "crash_restart".into(),
            seed: 11,
            seconds: 0.1,
            traced: false,
            smoke: true,
            out: None,
        };
        let a = run(&opts).unwrap().rec.prefix.unwrap();
        let b = run(&opts).unwrap().rec.prefix.unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.journal_bytes, b.journal_bytes);
        assert_eq!(a.kill_points, b.kill_points);
    }
}
