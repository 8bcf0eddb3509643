//! The measurement loop: one closed-loop client feeding a durable
//! `ContinuousRuntime`, timed from outside.
//!
//! A [`Source`] emits the workload's steps; the [`Driver`] delivers each
//! event, reads one `Instant` per event (the previous event's end is the
//! next one's start), and folds what the runtime returns into a
//! [`Recorder`]. Kills, recoveries, the fixed prefix over which the
//! deterministic metrics and the decision digest are taken, and the
//! traced bookkeeping all live here, so the four workloads differ only
//! in their source and their [`Plan`].

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::seam::{
    self, now_us, pump_completions, AutoComp, Journal, LakeConnector, RoundReport, Runtime,
    RuntimeConfig, RuntimeEvent, SeamStats, TelemetrySink, TimedExecutor, TimedLake, TimedMedium,
    TrackedExecutor,
};
use crate::synth::SplitMix64;

/// Source-side work whose wall time is charged to a layer of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// `Fleet::advance_day`: a day of writes through engine, lst, storage.
    EngineWrite = 0,
    /// `CommitEventBridge::drain`.
    BridgeDrain = 1,
    /// `drain_due`: the engine applies the rewrites' commits.
    EngineDrain = 2,
}

/// One step of a workload.
pub enum Step {
    /// Deliver this event to the runtime.
    Event(RuntimeEvent),
    /// Poll the platform at this simulated time and push what settled
    /// into the runtime as completion events.
    Pump(u64),
    /// The source just did work of its own inside `next`.
    Work(Bucket),
    /// A unit (tick or day) ended: the run may stop here.
    UnitEnd,
}

/// The world outside the runtime: it emits the steps, and survives a
/// kill (it is the lake, the platform and the event log).
pub trait Source {
    fn next(&mut self) -> Step;
    /// Simulated time of the events being emitted.
    fn now_ms(&self) -> u64;
    /// A fresh pipeline of this workload's shape (first start, restart).
    fn pipeline(&self, sink: TelemetrySink) -> AutoComp;
    fn runtime_config(&self) -> RuntimeConfig;
    /// A round saved a boundary snapshot.
    fn on_snapshot(&mut self) {}
    /// `(files reduced, GBHr spent, small-file fraction)` as of now.
    fn quality(&self) -> (f64, f64, f64);
}

/// How one workload is run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// `crash_restart`: the restarts are the workload. They count as
    /// timed wall, the prefix is counted in them, and they fall 1–7
    /// rounds past a snapshot. Elsewhere a restart is a probe: untimed,
    /// and always `PROBE_DISTANCE` rounds past its snapshot.
    pub kill_in_timed: bool,
    /// Snapshots from one kill to the next in the timed section (past
    /// the prefix, when the kills are probes): the probes are spread over
    /// the whole run, because a few seconds in which the machine is slow
    /// would otherwise be the whole metric. An episodic workload is
    /// probed once after each episode instead.
    pub probe_period: u64,
    /// Restarts per probe: the runtime is killed again as soon as it is
    /// up (a crash loop), and each restart is a sample of the same work.
    pub probe_crash_loop: u64,
    /// Length of the fixed prefix, in kills when `kill_in_timed` and in
    /// rounds otherwise. The run never stops inside it, so what is taken
    /// at its end depends on the seed alone, not on the machine's speed.
    pub prefix: u64,
    /// Set-ups timed in each of three batches: before the timed section,
    /// after it and after the twin (`setup_s` is the median of these and
    /// of every later episode's). One batch would sit in the run's first
    /// second, and a second in which the machine is slow would be the
    /// whole metric.
    pub setup_reps: usize,
    /// Units per episode. A workload whose cost per unit grows with its
    /// age (the real lake accumulates files) runs fixed-length episodes,
    /// each on a fresh world, until the time is up: what it measures then
    /// does not depend on how far a faster machine would have got. `None`
    /// is one open-ended episode.
    ///
    /// Such a workload's units (days) also pace it: its throughput
    /// windows close at unit ends instead of at snapshot rounds, and its
    /// probe kills right after the first commit event of the unit after
    /// the episode's last instead of `PROBE_DISTANCE` rounds past a
    /// snapshot — the restart then finds every table the day wrote
    /// changed since its snapshot, which costs ten times a mid-day
    /// restart and repeats far better.
    pub episode_units: Option<u64>,
    /// A kill lands 1–7 rounds past a snapshot plus up to this many
    /// commit events, so restarts find uncovered commits to re-deliver.
    pub kill_extra_max: u64,
}

/// Rounds past a snapshot at which a probe kills: the probes are few, so
/// they all take the middle of `crash_restart`'s 1–7.
const PROBE_DISTANCE: u64 = 4;

/// Exact distribution of simulated decision latencies (few distinct
/// values: multiples of the tick).
#[derive(Debug, Default)]
pub struct LatencyCounts {
    counts: BTreeMap<u64, u64>,
    pub samples: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            digest: FNV_OFFSET,
            ..Recorder::default()
        }
    }
}

impl LatencyCounts {
    fn absorb(&mut self, latencies: &[u64]) {
        let mut i = 0;
        while i < latencies.len() {
            let value = latencies[i];
            let run = latencies[i..].iter().take_while(|&&l| l == value).count();
            *self.counts.entry(value).or_default() += run as u64;
            i += run;
        }
        self.samples += latencies.len() as u64;
    }

    pub fn percentile(&self, q: f64) -> u64 {
        let rank = ((self.samples as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (&value, &count) in &self.counts {
            seen += count;
            if seen >= rank {
                return value;
            }
        }
        0
    }
}

/// One span of the trace file.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: &'static str,
    pub round: u64,
}

/// What was true at the end of the fixed prefix.
#[derive(Debug, Clone, Default)]
pub struct PrefixMark {
    pub rounds: u64,
    pub digest: u64,
    pub journal_bytes: u64,
    pub snapshot_bytes: u64,
    pub files_reduced: f64,
    pub gbhr_spent: f64,
    pub small_file_fraction: f64,
    /// Wall milliseconds of each of the prefix's own rounds, in order.
    pub round_ms: Vec<f64>,
    /// Event indices after which a kill (main) or a flush (twin) fell.
    pub kill_points: Vec<u64>,
}

/// Everything a run accumulates.
#[derive(Debug, Default)]
pub struct Recorder {
    // Whole run.
    pub events: u64,
    pub commits: u64,
    pub rounds: u64,
    pub round_errors: u64,
    pub submissions: u64,
    pub submit_failures: u64,
    pub recoveries: u64,
    pub recovery_failures: u64,
    pub latency: LatencyCounts,
    pub digest: u64,
    pub prefix: Option<PrefixMark>,
    pub kill_points: Vec<u64>,
    // Timed section.
    pub timed_busy_ns: u64,
    pub timed_commits: u64,
    /// Commits per second of each closed window of the timed section (a
    /// snapshot period, or a day of the real lake).
    pub window_commits_per_s: Vec<f64>,
    pub ingest_ns: u64,
    pub ingest_events: u64,
    pub plain_round_ms: Vec<f64>,
    pub snap_round_ms: Vec<f64>,
    pub work_ns: [u64; 3],
    pub units: u64,
    // Recoveries (timed section of crash_restart, probes elsewhere).
    pub recover_ms: Vec<f64>,
    // Ledger and splice counters, summed over rounds.
    pub settled: u64,
    pub deferred: u64,
    pub suppressed: u64,
    pub cache_spliced: u64,
    pub cache_recomputed: u64,
    pub memo_fast_rounds: u64,
    pub score_spliced: u64,
    pub score_recomputed: u64,
    pub timed_dirty_consumed: u64,
    pub timed_settled: u64,
    pub max_dirty_backlog: u64,
    pub deferred_rounds: u64,
    // Traced runs only.
    pub phase_ms: BTreeMap<&'static str, Vec<f64>>,
    pub round_self_ms: Vec<f64>,
    pub observe_self_ms: Vec<f64>,
    pub fetched: u64,
    pub lake_stats_calls: u64,
    pub lake_stats_ns: u64,
    pub execute_ns: u64,
    pub poll_ns: u64,
    pub encode_ms: Vec<f64>,
    pub encode_bytes: u64,
    pub restore_ms: Vec<f64>,
    pub replay_ms: Vec<f64>,
    pub replayed_records: Vec<f64>,
    pub medium_write_ms: Vec<f64>,
    pub medium_read_ms: Vec<f64>,
    pub journal_append_ns: f64,
    pub journal_bytes: u64,
    pub journal_records: u64,
    pub trace: Vec<TraceSpan>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Rounds-past-snapshot and extra-commit countdown to the next kill.
#[derive(Debug, Clone, Copy)]
struct Fuse {
    rounds_left: u64,
    commits_left: u64,
}

/// Lake, executor and source of one world.
pub type World<L, E, S> = (L, E, S);

/// Wraps a raw world in the timed seams.
pub fn timed_world<L, E, S>(
    (lake, exec, src): World<L, E, S>,
    stats: &Rc<SeamStats>,
) -> World<TimedLake<L>, TimedExecutor<E>, S> {
    (
        TimedLake::new(lake, stats.clone()),
        TimedExecutor::new(exec, stats.clone()),
        src,
    )
}

pub struct Driver<L, E, S> {
    lake: L,
    exec: E,
    src: S,
    seam: Rc<SeamStats>,
    traced: bool,
    rt: Option<Runtime>,
    sink: TelemetrySink,
    pub rec: Recorder,
    last: Instant,
    in_timed: bool,
    /// Commits delivered since the last round, kept once a kill is due:
    /// what the restart re-delivers.
    uncovered: Vec<RuntimeEvent>,
    kill_in_timed: bool,
    probe_period: u64,
    snapshots_since_kill: u64,
    kill_rng: SplitMix64,
    kill_extra_max: u64,
    /// Rounds past the snapshot of successive kills: a seeded order of
    /// 1..=7, cycled, so every seven kills cover each distance once.
    kill_rounds: [u64; 7],
    kills_armed: usize,
    /// The workload is paced by its units (see `Plan::episode_units`).
    by_unit: bool,
    window_commits: u64,
    window_ns: u64,
    fuse: Option<Fuse>,
    /// Twin only: event indices after which to deliver a flush.
    inject: VecDeque<u64>,
    prefix_round_ms: Vec<f64>,
    deferred_rounds_base: u64,
    seam_mark: [u64; 4],
    episode_units: u64,
}

impl<L: LakeConnector, E: TrackedExecutor, S: Source> Driver<L, E, S> {
    /// Set-up after the world is built: starts a durable runtime over
    /// empty storage and runs the first, cold round. `rec` is fresh, or
    /// the previous episode's to keep accumulating into; `seam` is what
    /// the world's timed wrappers (if any) count into.
    pub fn boot(
        (lake, exec, src): World<L, E, S>,
        seam: Rc<SeamStats>,
        plan: &Plan,
        traced: bool,
        rec: Recorder,
    ) -> Self {
        let sink = seam::sink(traced);
        let rt = seam::start(
            src.pipeline(sink.clone()),
            src.runtime_config(),
            TimedMedium::store(seam.clone(), traced),
            Journal::new(),
        );
        let mut kill_rng = SplitMix64(plan.seed ^ 0x6b69_6c6c);
        let mut kill_rounds = [PROBE_DISTANCE; 7];
        if plan.kill_in_timed {
            kill_rounds = [1, 2, 3, 4, 5, 6, 7];
            for i in (1..kill_rounds.len()).rev() {
                kill_rounds.swap(i, kill_rng.below(i as u64 + 1) as usize);
            }
        }
        let mut driver = Driver {
            lake,
            exec,
            src,
            seam,
            traced,
            rt: Some(rt),
            sink,
            deferred_rounds_base: rec.deferred_rounds,
            rec,
            last: Instant::now(),
            in_timed: false,
            uncovered: Vec::new(),
            kill_in_timed: plan.kill_in_timed,
            probe_period: plan.probe_period,
            snapshots_since_kill: 0,
            kill_rng,
            kill_extra_max: plan.kill_extra_max,
            kill_rounds,
            kills_armed: 0,
            by_unit: plan.episode_units.is_some(),
            window_commits: 0,
            window_ns: 0,
            fuse: None,
            inject: Default::default(),
            prefix_round_ms: Vec::new(),
            seam_mark: [0; 4],
            episode_units: 0,
        };
        driver.seam_delta();
        let at_ms = driver.src.now_ms();
        driver.deliver(RuntimeEvent::Flush { at_ms }, true);
        driver
    }

    /// Adds measured wall time to the timed section and its open window.
    fn charge(&mut self, ns: u64) {
        self.rec.timed_busy_ns += ns;
        self.window_ns += ns;
    }

    /// Closes the open throughput window.
    fn close_window(&mut self) {
        if self.window_ns > 0 {
            let rate = self.window_commits as f64 / (self.window_ns as f64 / 1e9);
            self.rec.window_commits_per_s.push(rate);
        }
        self.window_commits = 0;
        self.window_ns = 0;
    }

    fn rt(&mut self) -> &mut Runtime {
        self.rt
            .as_mut()
            .expect("a runtime is always up between steps")
    }

    /// Delivers one event and records what came back. `aside` events
    /// (the cold round, a restart's re-deliveries and flush, a twin's
    /// injected flush) are not timing samples.
    fn deliver(&mut self, event: RuntimeEvent, aside: bool) {
        let is_commit = matches!(event, RuntimeEvent::Commit { .. });
        if is_commit && !aside {
            self.rec.commits += 1;
            if self.fuse.is_some_and(|fuse| fuse.rounds_left == 0) {
                self.uncovered.push(event.clone());
            }
        }
        let rt = self.rt.as_mut().expect("runtime up");
        let fired = rt.handle_event(&event, &self.lake, &mut self.exec);
        let now = Instant::now();
        let took = now - self.last;
        self.last = now;
        if !aside {
            self.rec.events += 1;
            if self.in_timed {
                self.charge(took.as_nanos() as u64);
                self.rec.timed_commits += is_commit as u64;
                self.window_commits += is_commit as u64;
            }
        }
        match fired {
            Ok(None) => {
                if self.in_timed && !aside {
                    self.rec.ingest_ns += took.as_nanos() as u64;
                    self.rec.ingest_events += 1;
                }
            }
            Ok(Some(round)) => {
                self.on_round(round, took, aside);
                self.last = Instant::now();
            }
            Err(_) => {
                self.rec.rounds += 1;
                self.rec.round_errors += 1;
            }
        }
    }

    fn on_round(&mut self, round: RoundReport, took: Duration, aside: bool) {
        let rec = &mut self.rec;
        rec.rounds += 1;
        rec.latency.absorb(&round.commit_latencies_ms);
        self.uncovered.clear();

        let mut digest = fnv(rec.digest, rec.rounds);
        digest = fnv(digest, round.cause as u64);
        digest = fnv(digest, round.dirty_consumed as u64);
        for job in &round.report.executed {
            digest = fnv(digest, job.id.table_uid);
        }
        rec.digest = digest;

        for job in round.report.executed.iter().chain(&round.report.retried) {
            rec.submissions += 1;
            rec.submit_failures += job.result.error.is_some() as u64;
        }
        let ledger = &round.report.ledger;
        rec.settled += ledger.settled as u64;
        rec.deferred += ledger.deferred as u64;
        rec.suppressed += ledger.suppressed as u64;
        rec.cache_spliced += round.cache.spliced_tables as u64;
        rec.cache_recomputed += round.cache.recomputed_tables as u64;
        rec.memo_fast_rounds += round.memo.memo_fast as u64;
        rec.score_spliced += round.memo.spliced_scores as u64;
        rec.score_recomputed += round.memo.recomputed_scores as u64;
        rec.max_dirty_backlog = rec
            .max_dirty_backlog
            .max(round.runtime.max_dirty_backlog as u64);
        rec.deferred_rounds = self.deferred_rounds_base + round.runtime.deferred_rounds;

        let took_ms = took.as_secs_f64() * 1e3;
        if !aside && rec.prefix.is_none() {
            self.prefix_round_ms.push(took_ms);
        }
        let sample = self.in_timed && !aside;
        if sample {
            rec.timed_dirty_consumed += round.dirty_consumed as u64;
            rec.timed_settled += ledger.settled as u64;
            if round.snapshot_saved {
                rec.snap_round_ms.push(took_ms);
            } else {
                rec.plain_round_ms.push(took_ms);
            }
        }
        if self.traced {
            self.trace_round(&round, took_ms, sample);
        }
        if round.snapshot_saved && sample && !self.by_unit {
            self.close_window();
        }
        if round.snapshot_saved {
            self.src.on_snapshot();
            let past_prefix = self.kill_in_timed || self.rec.prefix.is_some();
            if self.in_timed && !self.by_unit && past_prefix && self.fuse.is_none() {
                self.snapshots_since_kill += 1;
                if self.snapshots_since_kill == self.probe_period {
                    self.snapshots_since_kill = 0;
                    self.kills_armed += 1;
                    self.fuse = Some(Fuse {
                        rounds_left: self.kill_rounds[self.kills_armed % 7],
                        commits_left: self.kill_rng.below(self.kill_extra_max),
                    });
                }
            }
        } else if let Some(fuse) = self.fuse.as_mut() {
            fuse.rounds_left = fuse.rounds_left.saturating_sub(1);
        }
    }

    /// Traced bookkeeping of one round: the six phase spans the sink
    /// recorded, the seams' busy time, and the encode probe.
    fn trace_round(&mut self, round: &RoundReport, took_ms: f64, sample: bool) {
        let end_us = now_us();
        let start_us = end_us.saturating_sub((took_ms * 1e3) as u64);
        let number = self.rec.rounds;
        self.rec.trace.push(TraceSpan {
            name: "round",
            start_us,
            end_us,
            parent: "",
            round: number,
        });
        let spans = self.sink.recent_spans();
        let cycle = spans.last().map_or(0, |s| s.cycle);
        let mut phases_ms = 0.0;
        let mut observe_ms = 0.0;
        for span in spans.iter().rev().take_while(|s| s.cycle == cycle) {
            let ms = span.duration as f64 / 1e3;
            phases_ms += ms;
            if span.phase == "observe" {
                observe_ms = ms;
            }
            if sample {
                self.rec.phase_ms.entry(span.phase).or_default().push(ms);
            }
            self.rec.trace.push(TraceSpan {
                name: span.phase,
                start_us: span.started,
                end_us: span.started + span.duration,
                parent: "round",
                round: number,
            });
        }
        let medium_ms = self.drain_medium("round", number);
        let [stats_calls, stats_ns, execute_ns, poll_ns] = self.seam_delta();
        if sample {
            self.rec.lake_stats_calls += stats_calls;
            self.rec.lake_stats_ns += stats_ns;
            self.rec.execute_ns += execute_ns;
            self.rec.poll_ns += poll_ns;
            self.rec
                .observe_self_ms
                .push(observe_ms - stats_ns as f64 / 1e6);
            self.rec.fetched += seam::fetched_last_round(self.rt()) as u64;
            if !round.snapshot_saved {
                self.rec.round_self_ms.push(took_ms - phases_ms - medium_ms);
            }
        }
        if round.snapshot_saved {
            if let Some((ms, bytes)) = seam::probe_encode(self.rt()) {
                self.rec.encode_ms.push(ms);
                self.rec.encode_bytes = bytes as u64;
            }
        }
    }

    /// Moves the medium's read/write intervals into the trace; returns
    /// their total milliseconds.
    fn drain_medium(&mut self, parent: &'static str, round: u64) -> f64 {
        let mut total = 0.0;
        let seam = self.seam.clone();
        let rec = &mut self.rec;
        for (name, intervals, samples) in [
            (
                "snapshot.write",
                &seam.medium_writes,
                &mut rec.medium_write_ms,
            ),
            ("snapshot.read", &seam.medium_reads, &mut rec.medium_read_ms),
        ] {
            for (start_us, end_us) in intervals.borrow_mut().drain(..) {
                let ms = (end_us - start_us) as f64 / 1e3;
                total += ms;
                samples.push(ms);
                rec.trace.push(TraceSpan {
                    name,
                    start_us,
                    end_us,
                    parent,
                    round,
                });
            }
        }
        total
    }

    /// Lake-stats calls and nanoseconds, execute and poll nanoseconds,
    /// since the last call.
    fn seam_delta(&mut self) -> [u64; 4] {
        let seam = &self.seam;
        let now = [
            seam.stats_calls.get(),
            seam.stats_ns.get(),
            seam.execute_ns.get(),
            seam.poll_ns.get(),
        ];
        let before = std::mem::replace(&mut self.seam_mark, now);
        std::array::from_fn(|i| now[i] - before[i])
    }

    /// Process death and restart: only the platform, the snapshot medium
    /// and the journal's bytes survive. Times journal reload through the
    /// return of the first flush round, and checks the recovery.
    fn kill_and_recover(&mut self) {
        let rt = self.rt.take().expect("runtime up");
        // Completions pumped since the last round are journaled but not
        // yet settled into the ledger; replay settles them.
        let in_flight = seam::jobs_in_flight(&rt) - rt.pending_completions();
        self.deferred_rounds_base = self.rec.deferred_rounds;
        self.rec.kill_points.push(self.rec.events);
        let (store, journal_bytes) = seam::kill(rt);

        let start_us = now_us();
        let started = Instant::now();
        let journal = Journal::from_bytes(&journal_bytes);
        let sink = seam::sink(self.traced);
        let mut rt = seam::start(
            self.src.pipeline(sink.clone()),
            self.src.runtime_config(),
            store,
            journal,
        );
        let warm = rt.recover().is_warm();
        let restored = seam::jobs_in_flight(&rt);
        self.rt = Some(rt);
        self.sink = sink;
        self.last = Instant::now();
        for event in std::mem::take(&mut self.uncovered) {
            self.deliver(event, true);
        }
        let at_ms = self.src.now_ms();
        self.deliver(RuntimeEvent::Flush { at_ms }, true);
        let took_ms = started.elapsed().as_secs_f64() * 1e3;

        self.rec.recoveries += 1;
        self.rec.recover_ms.push(took_ms);
        if self.in_timed && self.kill_in_timed {
            self.charge((took_ms * 1e6) as u64);
        }
        if !warm || restored != in_flight {
            self.rec.recovery_failures += 1;
            eprintln!(
                "recovery {} failed its check: warm={warm} in-flight before={in_flight} after={restored}",
                self.rec.recoveries
            );
        }
        if self.traced {
            let round = self.rec.rounds;
            self.rec.trace.push(TraceSpan {
                name: "recover",
                start_us,
                end_us: now_us(),
                parent: "",
                round,
            });
            self.drain_medium("recover", round);
            let scratch = self.src.pipeline(seam::sink(false));
            let rt = self.rt.as_ref().expect("runtime up");
            if let (Some(store), Some(journal)) = (rt.snapshot_store(), rt.journal()) {
                if let Some((restore, replay, records)) =
                    seam::probe_recovery(scratch, store, journal)
                {
                    self.rec.restore_ms.push(restore);
                    self.rec.replay_ms.push(replay);
                    self.rec.replayed_records.push(records as f64);
                }
            }
            self.seam.medium_reads.borrow_mut().clear();
        }
        self.fuse = None;
        self.last = Instant::now();
    }

    fn mark_prefix(&mut self) {
        let (journal_bytes, _) = seam::journal_size(self.rt());
        let (files_reduced, gbhr_spent, small_file_fraction) = self.src.quality();
        self.rec.prefix = Some(PrefixMark {
            rounds: self.rec.rounds,
            digest: self.rec.digest,
            journal_bytes,
            snapshot_bytes: self.seam.snapshot_bytes.get(),
            files_reduced,
            gbhr_spent,
            small_file_fraction,
            round_ms: std::mem::take(&mut self.prefix_round_ms),
            kill_points: self.rec.kill_points.clone(),
        });
        self.last = Instant::now();
    }

    /// Runs steps until `stop` says so; `stop` sees the driver after
    /// every step and whether that step ended a unit.
    fn run_until(&mut self, plan: &Plan, stop: impl Fn(&Self, bool) -> bool) {
        loop {
            let mut unit_end = false;
            match self.src.next() {
                Step::Event(event) => {
                    let is_commit = matches!(event, RuntimeEvent::Commit { .. });
                    self.deliver(event, false);
                    if self.inject.front() == Some(&self.rec.events) {
                        self.inject.pop_front();
                        let at_ms = self.src.now_ms();
                        self.deliver(RuntimeEvent::Flush { at_ms }, true);
                    }
                    if let Some(fuse) = self.fuse.as_mut() {
                        if fuse.rounds_left == 0 {
                            if fuse.commits_left == 0 {
                                let times = if plan.kill_in_timed {
                                    1
                                } else {
                                    plan.probe_crash_loop
                                };
                                for _ in 0..times {
                                    self.kill_and_recover();
                                }
                            } else if is_commit {
                                fuse.commits_left -= 1;
                            }
                        }
                    }
                }
                Step::Pump(at_ms) => {
                    let rt = self.rt.as_mut().expect("runtime up");
                    pump_completions(&mut self.exec, rt, at_ms);
                }
                Step::Work(bucket) => {
                    let now = Instant::now();
                    let took = (now - self.last).as_nanos() as u64;
                    self.last = now;
                    if self.in_timed {
                        self.charge(took);
                        self.rec.work_ns[bucket as usize] += took;
                    }
                }
                Step::UnitEnd => {
                    unit_end = true;
                    if self.in_timed {
                        self.rec.units += 1;
                        self.episode_units += 1;
                        if self.by_unit {
                            self.close_window();
                        }
                    }
                }
            }
            if self.rec.prefix.is_none() {
                let reached = if plan.kill_in_timed {
                    self.rec.recoveries
                } else {
                    self.rec.rounds
                };
                if reached >= plan.prefix {
                    self.mark_prefix();
                }
            }
            if stop(self, unit_end) {
                return;
            }
        }
    }

    /// Whether the timed section has measured for `plan.seconds`.
    pub fn time_is_up(&self, plan: &Plan) -> bool {
        self.rec.timed_busy_ns as f64 >= plan.seconds * 1e9
    }

    /// One episode of the timed section: to the first unit end past the
    /// prefix at which the episode is full or, when the workload is one
    /// open-ended episode, the time is up. A fixed-length episode is never
    /// cut short: a day costs more the later in its episode it falls, so
    /// a part of an episode would weigh the cheap days double, and the
    /// probes that follow would find a world of whatever age.
    pub fn run_timed(&mut self, plan: &Plan) {
        self.in_timed = true;
        self.last = Instant::now();
        self.run_until(plan, |d, unit_end| {
            let done = match plan.episode_units {
                Some(n) => d.episode_units >= n,
                None => d.time_is_up(plan),
            };
            unit_end && d.rec.prefix.is_some() && done
        });
        if self.rec.window_commits_per_s.is_empty() {
            self.close_window();
        }
        self.in_timed = false;
    }

    /// The recovery probe of an episodic workload, after an episode: the
    /// next unit starts and the runtime is killed after its first commit.
    pub fn run_probe(&mut self, plan: &Plan) {
        self.fuse = Some(Fuse {
            rounds_left: 0,
            commits_left: 0,
        });
        self.last = Instant::now();
        let target = self.rec.recoveries + plan.probe_crash_loop;
        self.run_until(plan, |d, _| d.rec.recoveries >= target);
    }

    /// The twin of a main run's prefix: the same steps with a flush
    /// wherever the main run was killed, in the other tracing mode.
    pub fn run_twin(&mut self, plan: &Plan, main: &PrefixMark) {
        self.inject = main.kill_points.iter().copied().collect();
        self.last = Instant::now();
        let rounds = main.rounds;
        let twin_plan = Plan {
            kill_in_timed: false,
            prefix: rounds,
            ..plan.clone()
        };
        self.run_until(&twin_plan, |d, _| d.rec.rounds >= rounds);
    }

    /// A shutdown round that covers the tail, and the journal's final size.
    pub fn finish(&mut self) {
        let at_ms = self.src.now_ms();
        let rt = self.rt.as_mut().expect("runtime up");
        match rt.shutdown(&self.lake, &mut self.exec, at_ms) {
            Ok(Some(round)) => self.on_round(round, Duration::ZERO, true),
            Ok(None) => {}
            Err(_) => {
                self.rec.rounds += 1;
                self.rec.round_errors += 1;
            }
        }
        let (bytes, records) = seam::journal_size(self.rt());
        self.rec.journal_bytes = bytes;
        self.rec.journal_records = records;
        if self.traced {
            if let Some(journal) = self.rt.as_ref().and_then(|rt| rt.journal()) {
                self.rec.journal_append_ns = seam::probe_journal_append(journal);
            }
        }
    }
}
