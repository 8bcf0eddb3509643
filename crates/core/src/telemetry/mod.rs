//! # autocomp::telemetry — unified observability layer
//!
//! A zero-dependency metrics registry (atomic counters, gauges, and
//! log2-bucketed histograms with exact-count p50/p95/p99 readout) plus
//! lightweight per-cycle phase spans, shared by every layer of the
//! pipeline through a cheap-to-clone [`TelemetrySink`] handle. Exported
//! two ways: [`TelemetryRegistry::render_prometheus`] (text exposition,
//! deterministic ordering, golden-pinned by `tests/telemetry.rs`) and
//! the human-readable [`FleetHealthReport`].
//!
//! ## Metric naming convention
//!
//! Every metric name is an interned `&'static str` of the form
//! `autocomp_<layer>_<metric>[_<unit>][_total]`:
//!
//! * `<layer>` is one of `pipeline`, `observe`, `runtime`, `act`,
//!   `durability`.
//! * Monotonic counters end in `_total`; gauges and histograms do not.
//! * Histogram and duration names carry their unit suffix (`_us` for
//!   clock microseconds, `_ms` for simulated milliseconds, `_bytes`).
//! * At most one label pair distinguishes series within a name —
//!   `{kind=...}` (job kind), `{cause=...}` (trigger cause),
//!   `{phase=...}` (OODA phase) — with label names and values interned
//!   `&'static str` too. The full catalogue lives in [`names`].
//!
//! ## Clock injection — never wall time
//!
//! The telemetry layer itself **never reads wall time**. Durations come
//! from a caller-supplied clock closure ([`ClockFn`], microseconds by
//! convention) installed via [`TelemetrySink::with_clock`]; without one,
//! every span and timing histogram records `0`. Deterministic scenario,
//! parity and golden-snapshot runs therefore stay bit-reproducible: the
//! same event schedule yields the same rendered registry, byte for
//! byte. Only leaf binaries that genuinely profile (the phase profiler,
//! the telemetry bench) install an `Instant`-based clock.
//!
//! ## Overhead contract
//!
//! * [`TelemetrySink::disabled`] is a `None` handle: every record call
//!   is a branch on an `Option` and returns — near-no-op, no
//!   allocation, no locking.
//! * The enabled sink is bounded-cost: counters/gauges are one short
//!   name-table lock plus one relaxed atomic op; histograms are
//!   wait-free after the cell lookup; the span ring is bounded
//!   ([`DEFAULT_SPAN_CAPACITY`]) so memory never grows with uptime.
//! * Telemetry must never change decisions: instrumented cycles stay
//!   bit-identical to uninstrumented ones (`tests/incremental_parity.rs`)
//!   and the benchmark's `telemetry.trace_overhead_pct` measures the
//!   enabled-sink round against its untraced twin.

mod histogram;
mod registry;
mod report;
mod span;

pub use histogram::{bucket_index, bucket_upper_edge, HistogramSnapshot, Log2Histogram, BUCKETS};
pub use registry::{MetricKey, MetricValue, TelemetryRegistry};
pub use report::FleetHealthReport;
pub use span::{phase, PhaseSpan, SpanRing};

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Caller-supplied clock: returns a monotonic reading in microseconds.
pub type ClockFn = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Bound on the span ring: 6 phases × ~85 cycles of history.
pub const DEFAULT_SPAN_CAPACITY: usize = 512;

/// Interned metric names (see the module docs for the convention).
pub mod names {
    /// Cycles started (counter).
    pub const PIPELINE_CYCLES_TOTAL: &str = "autocomp_pipeline_cycles_total";
    /// Per-phase duration histogram, labelled `{phase=...}` (µs).
    pub const PIPELINE_PHASE_DURATION_US: &str = "autocomp_pipeline_phase_duration_us";
    /// Cycle-cache splice hit ratio for the last cycle (gauge, 0..=1).
    pub const PIPELINE_CACHE_HIT_RATIO: &str = "autocomp_pipeline_cache_hit_ratio";
    /// Tables spliced from cache in the last cycle (gauge).
    pub const PIPELINE_CACHE_SPLICED: &str = "autocomp_pipeline_cache_spliced_tables";
    /// Tables recomputed in the last cycle (gauge).
    pub const PIPELINE_CACHE_RECOMPUTED: &str = "autocomp_pipeline_cache_recomputed_tables";
    /// Rank-memo score splice hit ratio for the last cycle (gauge, 0..=1).
    pub const PIPELINE_MEMO_HIT_RATIO: &str = "autocomp_pipeline_memo_hit_ratio";
    /// Cycles resolved on the memo fast path (counter).
    pub const PIPELINE_MEMO_FAST_TOTAL: &str = "autocomp_pipeline_memo_fast_cycles_total";
    /// Full-observe fallbacks, labelled `{cause=...}` — changelog
    /// overflow or changelog fault (counter).
    pub const OBSERVE_FULL_FALLBACK_TOTAL: &str = "autocomp_observe_full_fallback_total";
    /// Per-table stats reads that faulted (counter).
    pub const OBSERVE_STATS_FAULTS_TOTAL: &str = "autocomp_observe_stats_faults_total";
    /// Listing/changelog retries spent, labelled `{kind=...}` (counter).
    pub const OBSERVE_READ_RETRIES_TOTAL: &str = "autocomp_observe_read_retries_total";
    /// Entries currently carried forward as stale splices (gauge).
    pub const OBSERVE_CARRIED_FORWARD_ENTRIES: &str = "autocomp_observe_carried_forward_entries";
    /// Tables currently quarantined awaiting their backoff (gauge).
    pub const OBSERVE_QUARANTINE_DEPTH: &str = "autocomp_observe_quarantine_depth";
    /// Consecutive passes the table listing has been stale (gauge).
    pub const OBSERVE_LISTING_STALENESS_PASSES: &str = "autocomp_observe_listing_staleness_passes";
    /// Decision rounds fired, labelled `{cause=...}` (counter).
    pub const RUNTIME_ROUNDS_TOTAL: &str = "autocomp_runtime_rounds_total";
    /// Rounds run degraded, labelled `{cause=...}` (counter).
    pub const RUNTIME_DEGRADED_ROUNDS_TOTAL: &str = "autocomp_runtime_degraded_rounds_total";
    /// Fleet health state: 0 healthy, 1 degraded, 2 stalled (gauge).
    pub const RUNTIME_HEALTH_STATE: &str = "autocomp_runtime_health_state";
    /// Rounds deferred by the round-interval gate (counter).
    pub const RUNTIME_DEFERRED_ROUNDS_TOTAL: &str = "autocomp_runtime_deferred_rounds_total";
    /// Dirty tables consumed by the last round (gauge).
    pub const RUNTIME_DIRTY_BACKLOG: &str = "autocomp_runtime_dirty_backlog";
    /// High-water dirty backlog (gauge).
    pub const RUNTIME_MAX_DIRTY_BACKLOG: &str = "autocomp_runtime_max_dirty_backlog";
    /// High-water dirty-watermark overshoot (gauge).
    pub const RUNTIME_MAX_WATERMARK_OVERSHOOT: &str = "autocomp_runtime_max_watermark_overshoot";
    /// Commit-to-decision latency histogram (simulated ms).
    pub const RUNTIME_DECISION_LATENCY_MS: &str = "autocomp_runtime_decision_latency_ms";
    /// Jobs admitted, labelled `{kind=...}` (counter).
    pub const ACT_ADMITTED_TOTAL: &str = "autocomp_act_admitted_total";
    /// Admissions refused, labelled `{kind=...}` (counter).
    pub const ACT_DEFERRED_TOTAL: &str = "autocomp_act_deferred_total";
    /// Conflict retries submitted, labelled `{kind=...}` (counter).
    pub const ACT_RETRIES_TOTAL: &str = "autocomp_act_retries_total";
    /// Jobs settled as conflicted, labelled `{kind=...}` (counter).
    pub const ACT_CONFLICTS_TOTAL: &str = "autocomp_act_conflicts_total";
    /// Rolling GBHr window usage (gauge).
    pub const ACT_GBHR_WINDOW_USED: &str = "autocomp_act_gbhr_window_used";
    /// Configured GBHr window budget, absent series when unlimited (gauge).
    pub const ACT_GBHR_WINDOW_BUDGET: &str = "autocomp_act_gbhr_window_budget";
    /// Boundary snapshots saved (counter).
    pub const DURABILITY_SNAPSHOT_SAVES_TOTAL: &str = "autocomp_durability_snapshot_saves_total";
    /// Snapshot encode+save duration histogram (µs).
    pub const DURABILITY_SNAPSHOT_SAVE_US: &str = "autocomp_durability_snapshot_save_us";
    /// Snapshot payload size histogram (bytes).
    pub const DURABILITY_SNAPSHOT_BYTES: &str = "autocomp_durability_snapshot_bytes";
    /// Snapshot restore duration histogram (µs).
    pub const DURABILITY_RESTORE_US: &str = "autocomp_durability_restore_us";
    /// Journal events appended (counter).
    pub const DURABILITY_JOURNAL_APPENDS_TOTAL: &str = "autocomp_durability_journal_appends_total";
    /// Journal bytes appended (counter).
    pub const DURABILITY_JOURNAL_BYTES_TOTAL: &str = "autocomp_durability_journal_bytes_total";

    /// Label name for per-job-kind series.
    pub const LABEL_KIND: &str = "kind";
    /// Label name for per-trigger-cause series.
    pub const LABEL_CAUSE: &str = "cause";
    /// Label name for per-OODA-phase series.
    pub const LABEL_PHASE: &str = "phase";
}

struct SinkInner {
    registry: TelemetryRegistry,
    spans: Mutex<SpanRing>,
    clock: Option<ClockFn>,
    cycle: AtomicU64,
}

impl fmt::Debug for SinkInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkInner")
            .field("cycle", &self.cycle.load(Ordering::Relaxed))
            .field("has_clock", &self.clock.is_some())
            .finish()
    }
}

/// Cheap-to-clone handle through which every layer records telemetry.
///
/// Clones share one registry/span-ring/clock. The [disabled] variant is
/// a `None` handle whose record methods return immediately (see the
/// module-level overhead contract).
///
/// [disabled]: TelemetrySink::disabled
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    inner: Option<Arc<SinkInner>>,
}

impl Default for TelemetrySink {
    /// Enabled with the null clock — telemetry is on by default.
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetrySink {
    /// Enabled sink under the null clock: counters, gauges, histograms
    /// and span ordering all work; every duration reads `0`, keeping
    /// deterministic runs reproducible.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// Enabled sink with a caller-supplied monotonic clock
    /// (microseconds by convention).
    pub fn with_clock(clock: ClockFn) -> Self {
        Self::build(Some(clock))
    }

    /// The near-no-op sink: every record call branches and returns.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    fn build(clock: Option<ClockFn>) -> Self {
        Self {
            inner: Some(Arc::new(SinkInner {
                registry: TelemetryRegistry::new(),
                spans: Mutex::new(SpanRing::new(DEFAULT_SPAN_CAPACITY)),
                clock,
                cycle: AtomicU64::new(0),
            })),
        }
    }

    /// True when this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current clock reading (`0` when disabled or under the null clock).
    #[inline]
    pub fn now(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.clock.as_ref().map(|c| c()).unwrap_or(0),
            None => 0,
        }
    }

    /// Marks the start of a new pipeline cycle; returns its index
    /// (1-based, `0` when disabled) and bumps the cycle counter.
    pub fn begin_cycle(&self) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        inner
            .registry
            .counter_add(MetricKey::plain(names::PIPELINE_CYCLES_TOTAL), 1);
        inner.cycle.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Index of the cycle currently in flight (`0` before the first).
    pub fn current_cycle(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.cycle.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Reads the clock to open a phase span; pair with [`span_end`].
    ///
    /// [`span_end`]: TelemetrySink::span_end
    #[inline]
    pub fn span_start(&self) -> u64 {
        self.now()
    }

    /// Closes a phase span opened at `started`: pushes it into the ring
    /// and records its duration into the per-phase histogram.
    pub fn span_end(&self, phase_name: &'static str, started: u64) {
        let Some(inner) = &self.inner else { return };
        let duration = self.now().saturating_sub(started);
        inner.registry.observe(
            MetricKey::labelled(
                names::PIPELINE_PHASE_DURATION_US,
                names::LABEL_PHASE,
                phase_name,
            ),
            duration,
        );
        let span = PhaseSpan {
            cycle: inner.cycle.load(Ordering::Relaxed),
            phase: phase_name,
            started,
            duration,
        };
        inner.spans.lock().expect("span ring poisoned").push(span);
    }

    /// Adds `delta` to the unlabelled counter `name`.
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter_add(MetricKey::plain(name), delta);
        }
    }

    /// Adds `delta` to the counter series `name{label=value}`.
    #[inline]
    pub fn counter_add_labelled(
        &self,
        name: &'static str,
        label: &'static str,
        value: &'static str,
        delta: u64,
    ) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .counter_add(MetricKey::labelled(name, label, value), delta);
        }
    }

    /// Sets the unlabelled gauge `name`.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge_set(MetricKey::plain(name), value);
        }
    }

    /// Records one sample into the unlabelled histogram `name`.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.observe(MetricKey::plain(name), value);
        }
    }

    /// Shared handle to the histogram cell `name`, for hot loops that
    /// record without re-locking the name table. `None` when disabled.
    pub fn histogram_handle(&self, name: &'static str) -> Option<Arc<Log2Histogram>> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.registry.histogram_handle(MetricKey::plain(name)))
    }

    /// The shared registry (`None` when disabled).
    pub fn registry(&self) -> Option<&TelemetryRegistry> {
        self.inner.as_ref().map(|inner| &inner.registry)
    }

    /// Most-recent-last copy of the retained phase spans.
    pub fn recent_spans(&self) -> Vec<PhaseSpan> {
        match &self.inner {
            Some(inner) => inner.spans.lock().expect("span ring poisoned").to_vec(),
            None => Vec::new(),
        }
    }

    /// Prometheus text exposition of the registry (empty when disabled).
    pub fn render_prometheus(&self) -> String {
        match &self.inner {
            Some(inner) => inner.registry.render_prometheus(),
            None => String::new(),
        }
    }

    /// Human-readable roll-up of the registry and recent spans.
    pub fn health_report(&self) -> FleetHealthReport {
        FleetHealthReport::from_sink(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TelemetrySink::disabled();
        sink.counter_add(names::PIPELINE_CYCLES_TOTAL, 1);
        sink.gauge_set(names::RUNTIME_DIRTY_BACKLOG, 4.0);
        sink.observe(names::RUNTIME_DECISION_LATENCY_MS, 10);
        let t = sink.span_start();
        sink.span_end(phase::ORIENT, t);
        assert!(!sink.is_enabled());
        assert_eq!(sink.begin_cycle(), 0);
        assert!(sink.recent_spans().is_empty());
        assert_eq!(sink.render_prometheus(), "");
    }

    #[test]
    fn null_clock_records_zero_durations() {
        let sink = TelemetrySink::new();
        let cycle = sink.begin_cycle();
        assert_eq!(cycle, 1);
        let t = sink.span_start();
        sink.span_end(phase::RANK, t);
        let spans = sink.recent_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].cycle, 1);
        assert_eq!(spans[0].duration, 0);
    }

    #[test]
    fn injected_clock_drives_spans() {
        let ticks = Arc::new(AtomicU64::new(0));
        let src = Arc::clone(&ticks);
        let sink = TelemetrySink::with_clock(Arc::new(move || src.fetch_add(5, Ordering::Relaxed)));
        sink.begin_cycle();
        let t = sink.span_start();
        sink.span_end(phase::ACT, t);
        let spans = sink.recent_spans();
        assert_eq!(spans[0].started, 0);
        assert_eq!(spans[0].duration, 5);
    }

    #[test]
    fn clones_share_the_registry() {
        let sink = TelemetrySink::new();
        let other = sink.clone();
        sink.counter_add(names::ACT_ADMITTED_TOTAL, 2);
        other.counter_add(names::ACT_ADMITTED_TOTAL, 3);
        let reg = sink.registry().unwrap();
        assert_eq!(
            reg.counter_value(MetricKey::plain(names::ACT_ADMITTED_TOTAL)),
            5
        );
    }
}
