//! Turns a run's [`Outcome`] into named metrics, prints them, and writes
//! the result and trace files.

use std::fmt::Write as _;
use std::io::Write as _;

use crate::drive::PrefixMark;
use crate::{Opts, Outcome};

/// `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// Nearest-rank percentile; 0 for no samples.
fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `a[i] / b[i]` for every position both have.
fn paired_ratios(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(a, b)| ratio(*a, *b)).collect()
}

fn all_round_ms(o: &Outcome) -> Vec<f64> {
    [o.rec.plain_round_ms.as_slice(), &o.rec.snap_round_ms].concat()
}

/// Operations attempted — rounds, recoveries, job submissions and the
/// two whole-run checks — and those that failed: a round that returned
/// `Err`, a recovery that was not warm or lost in-flight jobs, a
/// submission the platform refused with an error, a commit without
/// exactly one decision-latency sample, a twin that decided differently.
pub fn ops(o: &Outcome) -> (u64, u64) {
    let rec = &o.rec;
    let unsampled = rec.commits.abs_diff(rec.latency.samples);
    let attempted = rec.rounds + rec.recoveries + rec.submissions + 2;
    let failed = rec.round_errors
        + rec.recovery_failures
        + rec.submit_failures
        + (unsampled > 0) as u64
        + !o.twin_agrees as u64;
    (attempted, failed)
}

/// The end-to-end metrics, in `BENCHMARK.json`'s order. The last three
/// are taken at the end of the fixed prefix, so they depend on the seed
/// alone.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let rec = &o.rec;
    let unmarked = PrefixMark::default();
    let mark = rec.prefix.as_ref().unwrap_or(&unmarked);
    vec![
        ("setup_s", median(&o.setup_s), "s"),
        ("commits_per_s", median(&rec.window_commits_per_s), "1/s"),
        ("round_ms_p50", median(&all_round_ms(o)), "ms"),
        ("round_ms_snap_p50", median(&rec.snap_round_ms), "ms"),
        ("recover_ms_p50", median(&rec.recover_ms), "ms"),
        ("peak_rss_mb", o.peak_rss_mb, "MB"),
        (
            "durable_bytes_per_round",
            ratio(
                (mark.journal_bytes + mark.snapshot_bytes) as f64,
                mark.rounds as f64,
            ),
            "B",
        ),
        (
            "files_reduced_per_gbhr",
            ratio(mark.files_reduced, mark.gbhr_spent),
            "1/GBHr",
        ),
        ("small_file_fraction_end", mark.small_file_fraction, "ratio"),
    ]
}

/// The per-layer metrics of a traced run, grouped by the repository's
/// modules.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let rec = &o.rec;
    let seam = &o.seam;
    let rounds_ms = all_round_ms(o);
    let timed_rounds = rounds_ms.len() as f64;
    let timed_ms = rec.timed_busy_ns as f64 / 1e6;
    let plain_p50 = median(&rec.plain_round_ms);
    let phase = |name: &str| median(rec.phase_ms.get(name).map_or(&[][..], |v| v));
    let snapshot_stall_ms: f64 = rec.snap_round_ms.iter().map(|ms| ms - plain_p50).sum();
    let stats_ms_per_round = ratio(rec.lake_stats_ns as f64 / 1e6, timed_rounds);
    let rounds_total_ms: f64 = rounds_ms.iter().sum();
    let days = rec.units.max(1) as f64;
    let recover_p50 = median(&rec.recover_ms);
    vec![
        // runtime
        ("runtime.events", rec.events as f64, "count"),
        ("runtime.rounds", rec.rounds as f64, "count"),
        (
            "runtime.ingest_ns_per_event",
            ratio(rec.ingest_ns as f64, rec.ingest_events as f64),
            "ns",
        ),
        (
            "runtime.ingest_share_pct",
            100.0 * ratio(rec.ingest_ns as f64, rec.timed_busy_ns as f64),
            "%",
        ),
        (
            "runtime.round_self_ms_p50",
            median(&rec.round_self_ms),
            "ms",
        ),
        ("runtime.round_ms_p95", percentile(&rounds_ms, 0.95), "ms"),
        ("runtime.round_ms_p99", percentile(&rounds_ms, 0.99), "ms"),
        (
            "runtime.max_dirty_backlog",
            rec.max_dirty_backlog as f64,
            "count",
        ),
        (
            "runtime.deferred_rounds",
            rec.deferred_rounds as f64,
            "count",
        ),
        (
            "runtime.decision_sim_ms_p95",
            rec.latency.percentile(0.95) as f64,
            "ms",
        ),
        // observe
        ("observe.span_ms_p50", phase("observe"), "ms"),
        ("observe.self_ms_p50", median(&rec.observe_self_ms), "ms"),
        (
            "observe.fetched_per_round",
            ratio(rec.fetched as f64, timed_rounds),
            "count",
        ),
        (
            "observe.fetch_waste_ratio",
            ratio(
                rec.lake_stats_calls as f64,
                (rec.timed_dirty_consumed + rec.timed_settled) as f64,
            ),
            "ratio",
        ),
        // lake (the connector under the seam)
        ("lake.stats_calls", rec.lake_stats_calls as f64, "count"),
        ("lake.stats_ms_per_round", stats_ms_per_round, "ms"),
        (
            "lake.stats_share_pct",
            100.0 * ratio(rec.lake_stats_ns as f64 / 1e6, rounds_total_ms),
            "%",
        ),
        ("lake.list_calls", seam.list_calls.get() as f64, "count"),
        (
            "lake.changes_calls",
            seam.changes_calls.get() as f64,
            "count",
        ),
        // filter + cycle cache
        ("filter_cache.span_ms_p50", phase("filter_splice"), "ms"),
        (
            "filter_cache.hit_ratio",
            ratio(
                rec.cache_spliced as f64,
                (rec.cache_spliced + rec.cache_recomputed) as f64,
            ),
            "ratio",
        ),
        // orient
        ("orient.span_ms_p50", phase("orient"), "ms"),
        // rank
        ("rank.span_ms_p50", phase("rank"), "ms"),
        (
            "rank.memo_fast_share",
            ratio(rec.memo_fast_rounds as f64, rec.rounds as f64),
            "ratio",
        ),
        (
            "rank.score_splice_ratio",
            ratio(
                rec.score_spliced as f64,
                (rec.score_spliced + rec.score_recomputed) as f64,
            ),
            "ratio",
        ),
        // act
        ("act.span_ms_p50", phase("act"), "ms"),
        ("act.settle_span_ms_p50", phase("settle"), "ms"),
        ("act.submitted", rec.submissions as f64, "count"),
        ("act.settled", rec.settled as f64, "count"),
        ("act.deferred", rec.deferred as f64, "count"),
        ("act.suppressed", rec.suppressed as f64, "count"),
        (
            "executor.execute_ms_per_round",
            ratio(rec.execute_ns as f64 / 1e6, timed_rounds),
            "ms",
        ),
        (
            "executor.poll_ms_per_round",
            ratio(rec.poll_ns as f64 / 1e6, timed_rounds),
            "ms",
        ),
        // durability
        ("durability.encode_ms_p50", median(&rec.encode_ms), "ms"),
        ("durability.snapshot_bytes", rec.encode_bytes as f64, "B"),
        (
            "durability.snapshot_share_pct",
            100.0 * ratio(snapshot_stall_ms, timed_ms),
            "%",
        ),
        ("durability.restore_ms_p50", median(&rec.restore_ms), "ms"),
        ("durability.replay_ms_p50", median(&rec.replay_ms), "ms"),
        (
            "durability.replayed_records_p50",
            median(&rec.replayed_records),
            "count",
        ),
        (
            "durability.recover_share_pct",
            100.0
                * ratio(
                    median(&rec.restore_ms) + median(&rec.replay_ms),
                    recover_p50,
                ),
            "%",
        ),
        // storage
        (
            "storage.snapshot_write_ms_p50",
            median(&rec.medium_write_ms),
            "ms",
        ),
        (
            "storage.snapshot_read_ms_p50",
            median(&rec.medium_read_ms),
            "ms",
        ),
        (
            "storage.snapshot_writes",
            seam.snapshot_writes.get() as f64,
            "count",
        ),
        (
            "storage.journal_records",
            rec.journal_records as f64,
            "count",
        ),
        ("storage.journal_bytes", rec.journal_bytes as f64, "B"),
        (
            "storage.journal_append_ns_per_record",
            rec.journal_append_ns,
            "ns",
        ),
        // engine and connector (lake_fleet only)
        (
            "engine.write_ms_per_day",
            rec.work_ns[0] as f64 / 1e6 / days,
            "ms",
        ),
        (
            "engine.drain_ms_per_day",
            rec.work_ns[2] as f64 / 1e6 / days,
            "ms",
        ),
        (
            "connector.bridge_drain_ms_per_day",
            rec.work_ns[1] as f64 / 1e6 / days,
            "ms",
        ),
        ("connector.bridge_events", rec.timed_commits as f64, "count"),
        // telemetry
        (
            "telemetry.trace_overhead_pct",
            100.0 * (median(&paired_ratios(&o.traced_round_ms, &o.untraced_round_ms)) - 1.0),
            "%",
        ),
    ]
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .unwrap();
    }
    line.push_str("}}");
    line
}

/// Prints the run — every metric of the requested kind by name, the
/// sample counts behind the timings, the checks — and the JSON result as
/// the last line. With `--out`, also writes
/// `<workload>.seed<N>.trace<0|1>.json` (the same JSON), `….info` (digest
/// and sample counts) and, traced, `<workload>.seed<N>.trace.jsonl`.
/// Returns whether every check passed.
pub fn emit(opts: &Opts, o: &Outcome) -> std::io::Result<bool> {
    let rec = &o.rec;
    let (attempted, failed) = ops(o);
    let correct = failed == 0;
    let metrics = if opts.traced {
        per_layer(o)
    } else {
        end_to_end(o)
    };
    let unmarked = PrefixMark::default();
    let mark = rec.prefix.as_ref().unwrap_or(&unmarked);
    let info = format!(
        "workload={} seed={} seconds={} traced={} smoke={}\n\
         digest={:016x} prefix_rounds={} prefix_kills={}\n\
         samples: rounds={} snapshot_rounds={} recoveries={} setups={} commits={} latency_samples={}\n\
         timed: busy_s={:.3} commits={} units={}\n\
         checks: round_errors={} recovery_failures={} submit_failures={} twin_agrees={}\n",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.traced as u8,
        opts.smoke as u8,
        mark.digest,
        mark.rounds,
        mark.kill_points.len(),
        rec.plain_round_ms.len() + rec.snap_round_ms.len(),
        rec.snap_round_ms.len(),
        rec.recover_ms.len(),
        o.setup_s.len(),
        rec.commits,
        rec.latency.samples,
        rec.timed_busy_ns as f64 / 1e9,
        rec.timed_commits,
        rec.units,
        rec.round_errors,
        rec.recovery_failures,
        rec.submit_failures,
        o.twin_agrees,
    );
    let line = json_line(correct, attempted, failed, &metrics);

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    write!(out, "{info}")?;
    for (name, value, unit) in &metrics {
        writeln!(out, "{name:<40} {value:>18.6} {unit}")?;
    }
    writeln!(out, "{line}")?;
    out.flush()?;

    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir)?;
        let run = format!("{}.seed{}", opts.workload, opts.seed);
        let stem = format!("{run}.trace{}", opts.traced as u8);
        std::fs::write(dir.join(format!("{stem}.json")), format!("{line}\n"))?;
        std::fs::write(dir.join(format!("{stem}.info")), info)?;
        if opts.traced {
            let file = std::fs::File::create(dir.join(format!("{run}.trace.jsonl")))?;
            let mut file = std::io::BufWriter::new(file);
            for span in &rec.trace {
                writeln!(
                    file,
                    "{{\"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": \"{}\", \"round\": {}}}",
                    span.name, span.start_us, span.end_us, span.parent, span.round
                )?;
            }
            file.flush()?;
        }
    }
    Ok(correct)
}
