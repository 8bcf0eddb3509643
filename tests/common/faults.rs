//! Deterministic, seed-driven fault injection for the durability and
//! observe-fault suites.
//!
//! Every adapter here is a pure function of its seed and the call
//! sequence (no wall clock, no global RNG), so a faulty run replays
//! bit-identically under the same seed — the property the
//! crash-recovery soak and the fault-injection invariant tests both
//! build on. Four fault surfaces are covered:
//!
//! * [`FaultyExecutor`] — submit-side transient/permanent errors plus
//!   delivery-side lost and duplicated outcomes, each with an
//!   independent per-mille rate;
//! * [`CrashingExecutor`] — scripted process-death points (panic before
//!   the Nth submission or the Nth poll), for `catch_unwind`-based
//!   crash/restore soaks;
//! * [`TornMedium`] — a [`SnapshotMedium`] wrapper that truncates the
//!   next slot write, modelling a crash mid-snapshot-write, and flips
//!   slot bytes, modelling a corrupt slot; it counts slot reads;
//! * [`Faulted`] — a [`LakeConnector`] decorator, the one observe-side
//!   injector: listing, changelog and per-table stats faults queued
//!   FIFO and consumed one per `try_*` read before the wrapped lake is
//!   asked, plus a log of which stats reads landed. [`ObserveFaultSchedule`]
//!   arms it per observe pass, scripted or seed-driven random, for the
//!   degradation and reconvergence suites (`tests/connector_faults.rs`).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use autocomp::{
    Candidate, CandidateStats, ChangeCursor, CompactionExecutor, ExecutionError, ExecutionResult,
    JobOutcome, LakeConnector, ObserveFault, Prediction, TableRef, TrackedExecutor,
};
use lakesim_storage::SnapshotMedium;

/// SplitMix64: tiny, deterministic, seedable — the standard mixer for
/// test-side randomness (never used by the production pipeline).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` (`0` when `bound == 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// True with probability `permille / 1000`.
    pub fn chance(&mut self, permille: u32) -> bool {
        self.below(1000) < permille as u64
    }
}

/// Per-mille rates for each injected fault class. All-zero (the
/// [`Default`]) injects nothing — the wrapper is then a transparent
/// pass-through.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultRates {
    /// Submission fails with a retryable [`ExecutionError::Transient`].
    pub transient_permille: u32,
    /// Submission fails with a final [`ExecutionError::Permanent`].
    pub permanent_permille: u32,
    /// A polled outcome is dropped (never delivered by this executor) —
    /// the lossy-reporting shape `job_lease_ms` exists for.
    pub lose_outcome_permille: u32,
    /// A polled outcome is delivered twice in the same batch — the
    /// at-least-once shape the ledger's settled-id dedupe exists for.
    pub duplicate_outcome_permille: u32,
}

/// Counters of what was actually injected, for test assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transient submit errors injected.
    pub transient: u64,
    /// Permanent submit errors injected.
    pub permanent: u64,
    /// Outcomes dropped.
    pub lost: u64,
    /// Outcomes duplicated.
    pub duplicated: u64,
}

/// Wraps a [`TrackedExecutor`] with seed-driven fault injection on both
/// the submit path and the outcome-delivery path.
pub struct FaultyExecutor<E> {
    inner: E,
    rng: SplitMix64,
    rates: FaultRates,
    counts: FaultCounts,
}

impl<E> FaultyExecutor<E> {
    /// Wraps `inner`, injecting faults at `rates` driven by `seed`.
    pub fn new(inner: E, seed: u64, rates: FaultRates) -> Self {
        FaultyExecutor {
            inner,
            rng: SplitMix64::new(seed),
            rates,
            counts: FaultCounts::default(),
        }
    }

    /// What was injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// The wrapped executor.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: CompactionExecutor> CompactionExecutor for FaultyExecutor<E> {
    fn execute(&mut self, c: &Candidate, p: &Prediction, now: u64) -> ExecutionResult {
        if self.rng.chance(self.rates.transient_permille) {
            self.counts.transient += 1;
            return ExecutionResult {
                error: Some(ExecutionError::transient("injected: storage timeout")),
                ..ExecutionResult::default()
            };
        }
        if self.rng.chance(self.rates.permanent_permille) {
            self.counts.permanent += 1;
            return ExecutionResult {
                error: Some(ExecutionError::permanent("injected: table dropped")),
                ..ExecutionResult::default()
            };
        }
        self.inner.execute(c, p, now)
    }
}

impl<E: TrackedExecutor> TrackedExecutor for FaultyExecutor<E> {
    fn poll(&mut self, now: u64) -> Vec<JobOutcome> {
        let mut delivered = Vec::new();
        for outcome in self.inner.poll(now) {
            if self.rng.chance(self.rates.lose_outcome_permille) {
                self.counts.lost += 1;
                continue;
            }
            if self.rng.chance(self.rates.duplicate_outcome_permille) {
                self.counts.duplicated += 1;
                delivered.push(outcome.clone());
            }
            delivered.push(outcome);
        }
        delivered
    }

    fn delivery_cursor(&self) -> u64 {
        self.inner.delivery_cursor()
    }
}

/// Where a scripted crash fires. `None` fields never fire.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashPoint {
    /// Panic *before* the Nth `execute` call (1-based) reaches the inner
    /// executor. Because the journaling wrapper sits inside this one,
    /// the platform submit and its journal record are never torn apart.
    pub before_execute: Option<u64>,
    /// Panic *before* the Nth `poll` call (1-based).
    pub before_poll: Option<u64>,
}

/// Marker payload of scripted-crash panics, so soaks can tell an
/// intentional kill from a real bug.
pub const SCRIPTED_CRASH: &str = "scripted crash";

/// Wraps a [`TrackedExecutor`] and panics at a scripted call index —
/// the process-death injector for `catch_unwind` crash soaks.
pub struct CrashingExecutor<E> {
    inner: E,
    crash: CrashPoint,
    executes: u64,
    polls: u64,
}

impl<E> CrashingExecutor<E> {
    /// Wraps `inner` with a crash script.
    pub fn new(inner: E, crash: CrashPoint) -> Self {
        CrashingExecutor {
            inner,
            crash,
            executes: 0,
            polls: 0,
        }
    }

    /// The wrapped executor.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Unwraps the crashed wrapper, salvaging the platform (which models
    /// the remote system that survives the client process's death).
    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<E: CompactionExecutor> CompactionExecutor for CrashingExecutor<E> {
    fn execute(&mut self, c: &Candidate, p: &Prediction, now: u64) -> ExecutionResult {
        self.executes += 1;
        if Some(self.executes) == self.crash.before_execute {
            panic!("{SCRIPTED_CRASH}: before execute #{}", self.executes);
        }
        self.inner.execute(c, p, now)
    }
}

impl<E: TrackedExecutor> TrackedExecutor for CrashingExecutor<E> {
    fn poll(&mut self, now: u64) -> Vec<JobOutcome> {
        self.polls += 1;
        if Some(self.polls) == self.crash.before_poll {
            panic!("{SCRIPTED_CRASH}: before poll #{}", self.polls);
        }
        self.inner.poll(now)
    }

    fn delivery_cursor(&self) -> u64 {
        self.inner.delivery_cursor()
    }
}

/// [`SnapshotMedium`] wrapper that tears the next slot write at a byte
/// offset — a crash mid-snapshot-write. The dual-slot store must fall
/// back to the other slot's older generation. It also counts slot reads
/// (clones share the count) and flips bytes in a slot in place.
#[derive(Clone)]
pub struct TornMedium<M> {
    inner: M,
    /// When set, the next `write_slot` keeps only this many bytes.
    tear_next_at: Option<usize>,
    /// Slot reads so far, shared by every clone.
    reads: Rc<Cell<u32>>,
}

impl<M> TornMedium<M> {
    /// Wraps `inner` with no tear armed.
    pub fn new(inner: M) -> Self {
        TornMedium {
            inner,
            tear_next_at: None,
            reads: Rc::default(),
        }
    }

    /// Arms a tear: the next write keeps only the first `keep` bytes.
    pub fn tear_next_write_at(&mut self, keep: usize) {
        self.tear_next_at = Some(keep);
    }

    /// The wrapped medium.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The count of slot reads, shared with this medium and its clones.
    pub fn reads(&self) -> Rc<Cell<u32>> {
        Rc::clone(&self.reads)
    }
}

impl<M: SnapshotMedium> TornMedium<M> {
    /// XORs byte `at` of `slot` with `mask`, in place.
    pub fn flip(&mut self, slot: usize, at: usize, mask: u8) {
        let mut bytes = self.inner.read_slot(slot).expect("a written slot");
        bytes[at] ^= mask;
        self.inner.write_slot(slot, &bytes).unwrap();
    }
}

impl<M: SnapshotMedium> SnapshotMedium for TornMedium<M> {
    fn read_slot(&self, slot: usize) -> Option<Vec<u8>> {
        self.reads.set(self.reads.get() + 1);
        self.inner.read_slot(slot)
    }

    fn write_slot(&mut self, slot: usize, bytes: &[u8]) -> std::io::Result<()> {
        match self.tear_next_at.take() {
            Some(keep) => self.inner.write_slot(slot, &bytes[..keep.min(bytes.len())]),
            None => self.inner.write_slot(slot, bytes),
        }
    }
}

/// One scripted observe-side fault event; the variant carries the
/// injected payload. Listing and changelog events drain one per `try_*`
/// call, stats events one per stats read of the named table.
#[derive(Debug, Clone)]
pub enum ObserveFaultKind {
    /// `try_list_tables` fails.
    Listing(ObserveFault),
    /// `try_changes_since` fails (a read fault — retried).
    Changelog(ObserveFault),
    /// `try_changes_since` answers `None` mid-stream (retention
    /// overflow — definitive, forces one full observe) without the real
    /// changelog having to be flooded past its cap.
    ChangelogOverflow,
    /// The named table's next stats read fails.
    Stats(u64, ObserveFault),
}

/// The armed events and the read log of a [`Faulted`] lake.
#[derive(Default)]
struct Script {
    listing: VecDeque<ObserveFault>,
    /// `Changelog` and `ChangelogOverflow` events only.
    changelog: VecDeque<ObserveFaultKind>,
    stats: BTreeMap<u64, VecDeque<ObserveFault>>,
    /// Fallible stats reads since the last `take_reads`: uid → whether
    /// the read landed (`false`: it faulted).
    reads: BTreeMap<u64, bool>,
}

/// A lake whose fallible reads fault on cue: wraps any [`LakeConnector`]
/// and forwards every read to it, except that each `try_*` read first
/// pops one armed event of its kind and, if there is one, answers with
/// it instead of asking the wrapped lake. Stats events queue per table
/// uid, and the table, partition and snapshot shapes share that queue,
/// so a faulted table faults whichever shape the scope asks for. An
/// empty queue lets the read through, which is how a schedule heals:
/// once the armed events drain, the lake answers exactly as the wrapped
/// one does.
///
/// Injection happens before the wrapped read, so a table that vanished
/// still answers `Ok(None)` and an injected fault always answers `Err`:
/// faults never masquerade as drops. The wrapped lake itself, reached
/// through [`inner`](Self::inner), is the never-faulted view of the same
/// data.
pub struct Faulted<L> {
    inner: L,
    script: RefCell<Script>,
}

impl<L: LakeConnector> Faulted<L> {
    /// Wraps `inner` with nothing armed.
    pub fn new(inner: L) -> Self {
        Faulted {
            inner,
            script: RefCell::default(),
        }
    }

    /// The wrapped lake: reads through it neither consume armed events
    /// nor show up in the read log.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Queues `event` behind those of its kind.
    fn arm(&self, event: ObserveFaultKind) {
        let mut script = self.script.borrow_mut();
        match event {
            ObserveFaultKind::Listing(fault) => script.listing.push_back(fault),
            ObserveFaultKind::Stats(uid, fault) => {
                script.stats.entry(uid).or_default().push_back(fault)
            }
            changelog => script.changelog.push_back(changelog),
        }
    }

    /// The next unconsumed `try_list_tables` call fails with `fault`.
    pub fn fault_listing(&self, fault: ObserveFault) {
        self.arm(ObserveFaultKind::Listing(fault));
    }

    /// The next unconsumed `try_changes_since` call fails with `fault`.
    pub fn fault_changelog(&self, fault: ObserveFault) {
        self.arm(ObserveFaultKind::Changelog(fault));
    }

    /// The next unconsumed `try_changes_since` call answers `None`: the
    /// cursor fell out of the changelog's retention.
    pub fn overflow_changelog(&self) {
        self.arm(ObserveFaultKind::ChangelogOverflow);
    }

    /// `table_uid`'s next unconsumed stats read (table, partition or
    /// snapshot shape) fails with `fault`.
    pub fn fault_stats(&self, table_uid: u64, fault: ObserveFault) {
        self.arm(ObserveFaultKind::Stats(table_uid, fault));
    }

    /// Whether a stats fault is armed for `table_uid` and not yet
    /// consumed.
    pub fn stats_armed(&self, table_uid: u64) -> bool {
        let script = self.script.borrow();
        script.stats.get(&table_uid).is_some_and(|q| !q.is_empty())
    }

    /// Drops every unconsumed event — the "infrastructure healed" event
    /// for schedules whose reads were never re-issued (a listing fault
    /// armed while the registry epoch let the observer reuse its prior
    /// listing, a stats fault on a table that never turned dirty).
    pub fn clear(&self) {
        let mut script = self.script.borrow_mut();
        script.listing.clear();
        script.changelog.clear();
        script.stats.clear();
    }

    /// Whether every armed event has been consumed (the schedule has
    /// healed).
    pub fn drained(&self) -> bool {
        let script = self.script.borrow();
        script.listing.is_empty()
            && script.changelog.is_empty()
            && script.stats.values().all(VecDeque::is_empty)
    }

    /// The fallible stats reads since the last call, as uid → whether
    /// the table's last read landed.
    pub fn take_reads(&self) -> BTreeMap<u64, bool> {
        std::mem::take(&mut self.script.borrow_mut().reads)
    }

    /// Front of every fallible stats read: consumes `table_uid`'s next
    /// armed fault or runs `read`, and logs which.
    fn stats_read<T>(
        &self,
        table_uid: u64,
        read: impl FnOnce() -> Result<T, ObserveFault>,
    ) -> Result<T, ObserveFault> {
        let fault = self
            .script
            .borrow_mut()
            .stats
            .get_mut(&table_uid)
            .and_then(VecDeque::pop_front);
        let result = match fault {
            Some(fault) => Err(fault),
            None => read(),
        };
        let landed = result.is_ok();
        self.script.borrow_mut().reads.insert(table_uid, landed);
        result
    }
}

impl<L: LakeConnector> LakeConnector for Faulted<L> {
    fn list_tables(&self) -> Vec<TableRef> {
        self.inner.list_tables()
    }

    fn table_stats(&self, table_uid: u64) -> Option<CandidateStats> {
        self.inner.table_stats(table_uid)
    }

    fn partition_stats(&self, table_uid: u64) -> Vec<(String, CandidateStats)> {
        self.inner.partition_stats(table_uid)
    }

    fn snapshot_stats(&self, table_uid: u64, window_ms: u64) -> Option<CandidateStats> {
        self.inner.snapshot_stats(table_uid, window_ms)
    }

    fn fleet_cursor(&self) -> Option<ChangeCursor> {
        self.inner.fleet_cursor()
    }

    fn listing_epoch(&self) -> Option<u64> {
        self.inner.listing_epoch()
    }

    fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
        self.inner.changes_since(cursor)
    }

    fn try_list_tables(&self) -> Result<Vec<TableRef>, ObserveFault> {
        let fault = self.script.borrow_mut().listing.pop_front();
        match fault {
            Some(fault) => Err(fault),
            None => self.inner.try_list_tables(),
        }
    }

    fn try_table_stats(&self, table_uid: u64) -> Result<Option<CandidateStats>, ObserveFault> {
        self.stats_read(table_uid, || self.inner.try_table_stats(table_uid))
    }

    fn try_partition_stats(
        &self,
        table_uid: u64,
    ) -> Result<Vec<(String, CandidateStats)>, ObserveFault> {
        self.stats_read(table_uid, || self.inner.try_partition_stats(table_uid))
    }

    fn try_snapshot_stats(
        &self,
        table_uid: u64,
        window_ms: u64,
    ) -> Result<Option<CandidateStats>, ObserveFault> {
        self.stats_read(table_uid, || {
            self.inner.try_snapshot_stats(table_uid, window_ms)
        })
    }

    fn try_changes_since(&self, cursor: ChangeCursor) -> Result<Option<Vec<u64>>, ObserveFault> {
        let event = self.script.borrow_mut().changelog.pop_front();
        match event {
            Some(ObserveFaultKind::Changelog(fault)) => Err(fault),
            // The only other event the changelog queue holds.
            Some(_overflow) => Ok(None),
            None => self.inner.try_changes_since(cursor),
        }
    }
}

/// A deterministic per-pass observe fault schedule: `(pass, event)`
/// pairs, armed into a [`Faulted`] lake right before the matching
/// observe pass runs ([`arm`](Self::arm)). Replays bit-identically: the
/// schedule is data, the lake drains FIFO, and nothing reads a clock.
#[derive(Debug)]
pub struct ObserveFaultSchedule {
    events: Vec<(u64, ObserveFaultKind)>,
}

impl ObserveFaultSchedule {
    /// Arms every event scheduled for `pass` into `lake`, in schedule
    /// order.
    pub fn arm<L: LakeConnector>(&self, pass: u64, lake: &Faulted<L>) {
        for (_, event) in self.events.iter().filter(|(p, _)| *p == pass) {
            lake.arm(event.clone());
        }
    }

    /// Seed-driven random schedule over `passes` observe passes and the
    /// given table uids: per pass, each fault surface (listing,
    /// changelog, each table's stats) independently fires with
    /// probability `permille / 1000`, with a deterministic
    /// transient/permanent/overflow mix. Pure function of the arguments
    /// — the chaos property's generator.
    pub fn random(seed: u64, passes: u64, uids: &[u64], permille: u32) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut events = Vec::new();
        for pass in 0..passes {
            if rng.chance(permille) {
                let fault = if rng.chance(600) {
                    ObserveFault::transient("injected: catalog listing timeout")
                } else {
                    ObserveFault::permanent("injected: catalog listing denied")
                };
                events.push((pass, ObserveFaultKind::Listing(fault)));
            }
            if rng.chance(permille) {
                let event = match rng.below(3) {
                    0 => ObserveFaultKind::ChangelogOverflow,
                    1 => ObserveFaultKind::Changelog(ObserveFault::transient(
                        "injected: changelog tail timeout",
                    )),
                    _ => ObserveFaultKind::Changelog(ObserveFault::permanent(
                        "injected: changelog unavailable",
                    )),
                };
                events.push((pass, event));
            }
            for &uid in uids {
                if rng.chance(permille) {
                    let fault = if rng.chance(700) {
                        ObserveFault::transient("injected: stats endpoint 503")
                    } else {
                        ObserveFault::permanent("injected: stats acl revoked")
                    };
                    events.push((pass, ObserveFaultKind::Stats(uid, fault)));
                }
            }
        }
        ObserveFaultSchedule { events }
    }
}
