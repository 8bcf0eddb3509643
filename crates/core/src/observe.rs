//! The batched, snapshot-oriented observe API.
//!
//! The original connector protocol was a chatty per-table pull: one
//! `list_tables()` round-trip, then one `table_stats()` /
//! `partition_stats()` call per table. At the paper's fleet scale (§6–§7,
//! 21K → 100K tables per cycle) that shape caps the OODA cadence:
//! nothing is reused between cycles, and every cycle pays the full-fleet
//! cost even when almost nothing changed.
//!
//! This module replaces that protocol with a single entry point,
//! `observe(ObserveRequest) -> FleetObservation`:
//!
//! * [`FleetObservation`] is a self-contained snapshot of the fleet —
//!   table descriptors plus per-table stats, indexed positionally, with
//!   `Arc<str>`-shared names — that [`to_candidates`] and the pipeline
//!   consume by index.
//! * [`ObserveRequest`] carries the scope strategy and, optionally, the
//!   *prior* observation, by value. When the connector supports a change
//!   cursor ([`ChangeCursor`], fed by after-write hooks and the
//!   executor's commit log), an incremental observe re-fetches stats
//!   only for the tables written since the prior cycle and reuses the
//!   prior entries for the rest — the §5 optimize-after-write mode stops
//!   paying full-fleet observe cost.
//! * [`FleetObserver`] is the small session object that threads the prior
//!   observation and externally-marked dirty tables (§5
//!   [`HookAction::MarkDirty`]) through consecutive cycles. The marks are
//!   a [`DirtySet`], bits over the prior's uid index (below) that keep
//!   hold of that index: a mark is at most one index probe and a bit
//!   set, and the set keeps its distinct-uid count as marks land.
//!
//! One driver implements the protocol: [`pull_observe`], the default
//! every [`LakeConnector`] inherits, fetches table by table in listing
//! order. A connector with a cheaper native path overrides
//! [`LakeConnector::observe`]; for identical lake state its observation
//! must equal the driver's — the parity contract the golden tests pin.
//!
//! # Staleness contract of incremental observe
//!
//! A reused entry is byte-for-byte the *prior cycle's* stats. That is
//! exact when a quiet table's stats are a pure function of its own
//! unwritten state, and **bounded staleness** when they embed
//! time-decaying or shared signals: a database quota moved by a sibling
//! table's write, a write-frequency window that decays with the clock,
//! or a snapshot-window scope whose files age out. Connectors whose
//! changelog cannot capture those signals trade that staleness — at most
//! one dirty-cycle old, refreshed whenever the table itself is written
//! or [`FleetObserver::mark_dirty`]/[`FleetObserver::reset`] intervene —
//! for skipping the full-fleet fetch. Drivers that need exact fleetwide
//! signals on a cadence should interleave periodic cold observes
//! (`reset()` before the cycle), or force-dirty the affected tables
//! (e.g. every table of a database whose quota was edited). The
//! staleness suite (`tests/staleness_contract.rs`) pins this contract
//! executable: sibling-write quota moves, write-frequency decay and
//! snapshot-window aging are each exact after a cold observe, frozen
//! under reuse, and reconverge exactly after a reset.
//!
//! # Freshness, and what downstream caches key on
//!
//! Every observation knows, per entry, whether it was **fetched this
//! pass** ([`FleetObservation::is_fresh`]) or reused verbatim, and which
//! snapshot it was incrementally derived from
//! ([`FleetObservation::prior_cursor`]). Together these are the
//! invalidation contract for cross-cycle state (the pipeline's
//! [decide state](crate::decide)): a retained per-table artifact is
//! valid iff it was computed against the observation whose cursor equals
//! `prior_cursor()` *and* the table's entry is not fresh — force-dirtied
//! tables read as fresh even when the changelog never saw a write,
//! precisely so retained rows are patched. See [`crate::decide`] for the
//! rest of its keys.
//!
//! # Plan, assemble, fetch in place
//!
//! Every pass runs the same three steps after the listing and changelog
//! reads resolve:
//!
//! * **Plan.** Only a prior of the same scope is reused. The changelog's
//!   uids join the pass's [`DirtySet`] in the prior's uid index (marks
//!   made against another listing are placed there again), and the
//!   set becomes a bitmap of the prior's listing positions: every
//!   position a dirty uid is listed at. When the listing is literally
//!   shared (`Arc::ptr_eq` under an unchanged
//!   [`LakeConnector::listing_epoch`], or re-read equal to the prior's
//!   element for element) positions are identical and the
//!   fetch list is a scan of that bitmap, ascending: O(changes + dirty +
//!   n/64) work, with no sort. Otherwise one O(n) walk maps every listed
//!   table to its prior position — positional compare first, the
//!   prior's uid index only for tables that moved — and a table is dirty
//!   when its prior position's bit is set; a re-read listing in which no
//!   table moved is planned exactly like a shared one. A prior position is
//!   handed out once, so a uid the listing repeats is fetched at its
//!   repeat like a new table. Dirty and newly listed tables are fetched;
//!   dirty uids the prior does not list have no position and are
//!   ignored; without a changelog answer every table is fetched.
//! * **Assemble.** The pass consumes its prior and builds its entry
//!   vector *before* fetching, every position already holding its carry
//!   value: when no position moved, the prior's own vector; when tables
//!   moved, prior entries moved to their new positions and `Missing`
//!   where the prior held none; with no prior, `Missing` everywhere.
//! * **Fetch in place.** One loop asks the connector for the planned
//!   positions in listing order and writes each answer straight into
//!   its slot. A faulted fetch either carries — the slot keeps its prior
//!   entry and reads as reused — or retires the slot to `Missing`, per
//!   the degradation contract below. Exactly the entries whose value
//!   came from the connector this pass read as fresh; a quiet pass hands
//!   the prior's vector on untouched.
//!
//! A pass owns its prior, so the runtime's [`FleetObserver`] — the only
//! holder of its observation — never copies an entry it reuses; the
//! entry vector sits behind an `Arc`, and a pass over a prior someone
//! else still holds a clone of copies the vector once before patching
//! it (`Arc::make_mut`), so observations stay values. An observation
//! holds exactly one entry per listed table, so nothing needs bounding.
//!
//! # The uid index
//!
//! Each listing has one lazily built uid index, shared along the
//! observation chain while no table moves. It answers
//! [`FleetObservation::position_of_uid`] and places dirty marks, in one
//! of two forms:
//!
//! * **Dense**, when the listed uids span at most twice as many uids as
//!   there are tables (connectors that number tables as they create them):
//!   a position table indexed by `uid - smallest uid`. Every uid in the
//!   span has a slot, listed or not, so a mark is a range check and a bit
//!   set — no probe on the commit path.
//! * **Hashed**, for any other uid set: a keyed-hash map from uid to
//!   position, and a mark is one probe. A uid's slot is its position.
//!
//! Either way a uid the index cannot place goes to the set's side list,
//! counted but never fetched, and the plan maps slots to every position
//! their uid is listed at. The two forms answer alike — pinned by
//! `tests::position_of_uid_agrees_with_a_linear_scan` and
//! `tests::dirty_marks_place_alike_over_dense_and_hashed_indexes`.
//!
//! # Degradation contract (fault-tolerant observe)
//!
//! The driver consumes only the fallible `try_*` connector surface
//! ([`ObserveFault`]`{Transient, Permanent}`) and **never fails the
//! round**: every fault degrades along a documented path, recorded on
//! the observation's [`ObserveDegradation`] so the runtime's health
//! state machine and telemetry can surface it. The exact conditions,
//! in the order they are evaluated:
//!
//! * **Listing fault** (`try_list_tables`): transient faults retry with
//!   capped-exponential backoff — the act-phase shape, notional (the
//!   driver never sleeps; the accumulated wait is charged against
//!   `RETRY_DEADLINE_MS`). On a permanent
//!   fault or an exhausted budget, the *prior listing is reused*
//!   (`listing_stale_passes` increments; the recorded listing epoch
//!   stays the prior's, so a healed listing re-lists). With no prior to
//!   carry, the pass returns an empty **stalled husk** observation —
//!   the loop is blind and says so (`stalled`).
//! * **Changelog fault** (`try_changes_since`): same retry budget; on
//!   exhaustion/permanent the pass falls back to a **full observe**
//!   (`fallback = `[`FallbackCause::ChangelogFault`]). A mid-stream
//!   `Ok(None)` under a prior that carried a cursor is **retention
//!   overflow** ([`FallbackCause::ChangelogOverflow`]) — no retry
//!   (overflow is definitive), one full observe resynchronizes.
//! * **Per-table stats fault** (`try_table_stats` /
//!   `try_partition_stats` / `try_snapshot_stats`): no in-pass retry.
//!   The *prior entry is spliced* (carry-forward: stale but
//!   self-consistent values), the table enters the **quarantine set**
//!   with capped-exponential backoff *in passes*
//!   (base `QUARANTINE_BACKOFF_PASSES`), and once the
//!   backoff expires the table is re-force-dirtied automatically. Each
//!   consecutive faulted re-fetch increments the quarantine attempt
//!   count; past `MAX_CARRY_ATTEMPTS` the
//!   entry is **retired** to [`TableObservation::Missing`] (the table
//!   leaves the candidate set until it heals) — so a carried entry's
//!   staleness is bounded by the sum of the first `MAX_CARRY_ATTEMPTS`
//!   quarantine backoffs. A successful re-fetch clears the record.
//! * **Vanish is never a fault**: `Ok(None)` from a stats read still
//!   means the table vanished and yields `Missing` exactly as before —
//!   see the connector module docs' vanish-vs-fault split.
//! * **Fallback/reset conditions**: a scope change drops carry and
//!   quarantine state (prior entries have the wrong shape); snapshot
//!   restore keeps the quarantine records, re-based to pass 0 (a
//!   carried entry is still re-fetched when its backoff expires, so the
//!   carry-staleness bound survives a crash), and resets the per-pass
//!   counters and the listing staleness; [`FleetObserver::reset`]
//!   starts a fresh chain.
//!
//! Reconvergence is the contract the chaos suite
//! (`tests/connector_faults.rs`) pins: after faults heal, quarantined
//! tables are re-fetched as their backoffs expire and cycles become
//! bit-identical to a never-faulted twin's. Degradation metadata is
//! excluded from [`FleetObservation`] equality: it describes *how* the
//! snapshot was obtained, not fleet content.
//!
//! [`to_candidates`]: FleetObservation::to_candidates
//! [`HookAction::MarkDirty`]: crate::trigger::HookAction::MarkDirty
//! [`LakeConnector`]: crate::connector::LakeConnector
//! [`ObserveFault`]: crate::connector::ObserveFault

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, OnceLock};

use crate::candidate::{Candidate, CandidateId, ScopeKind, TableRef};
use crate::connector::{LakeConnector, ObserveFault};
use crate::scope::ScopeStrategy;
use crate::stats::CandidateStats;

/// Opaque, connector-scoped position in a lake's change stream.
///
/// A connector that can answer "which tables were written since this
/// point?" hands out cursors from `fleet_cursor()` and interprets them in
/// `changes_since()`. Cursors from different connectors (or different
/// environments) are not comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChangeCursor(pub u64);

/// Parameters of one observe pass.
#[derive(Debug, Clone)]
pub struct ObserveRequest {
    /// Candidate scoping strategy; decides which stats are fetched per
    /// table (table-, partition- or snapshot-window-scope).
    pub scope: ScopeStrategy,
    /// Prior cycle's observation, consumed by the pass. When present
    /// (with a cursor, matching scope, and a connector-supported
    /// changelog) the observe pass is incremental: only tables written
    /// since the prior cursor — plus `force_dirty` and newly listed
    /// tables — are re-fetched. Reused entries carry the prior cycle's
    /// values verbatim (see the module docs' staleness contract).
    pub prior: Option<FleetObservation>,
    /// Tables to re-fetch regardless of the changelog (externally known
    /// dirty tables, e.g. §5 after-write hooks in `MarkDirty` mode),
    /// handed over by value. [`FleetObserver`] fills it from
    /// [`FleetObserver::mark_dirty`], against the observation it then
    /// passes as `prior`; a request built elsewhere carries the empty
    /// set. The set keeps the listing its marks were placed in, so a
    /// pass handed another `prior` places them again in that one, and
    /// [`DirtySet::uids`] reads them.
    pub force_dirty: DirtySet,
}

impl ObserveRequest {
    /// A full (cold) observe: every table's stats are fetched.
    pub fn fresh(scope: ScopeStrategy) -> Self {
        ObserveRequest {
            scope,
            prior: None,
            force_dirty: DirtySet::default(),
        }
    }

    /// An incremental observe against `prior`. Falls back to a full
    /// fetch when the connector has no changelog, the prior carries no
    /// cursor, or the scope changed.
    pub fn incremental(scope: ScopeStrategy, prior: FleetObservation) -> Self {
        ObserveRequest {
            prior: Some(prior),
            ..Self::fresh(scope)
        }
    }
}

/// Why an observe pass abandoned the incremental path and fell back to
/// a full fetch. Recorded on [`ObserveDegradation::fallback`] and
/// counted under `autocomp_observe_full_fallback_total{cause=...}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackCause {
    /// The connector supports a changelog (the prior pass obtained a
    /// cursor) but answered `None` mid-stream: the cursor predates its
    /// retention. Definitive — not retried; one full observe
    /// resynchronizes the chain.
    ChangelogOverflow,
    /// The changelog read faulted permanently or exhausted the retry
    /// budget. One full observe resynchronizes the chain.
    ChangelogFault,
}

impl FallbackCause {
    /// Interned telemetry label for this cause.
    pub fn label(&self) -> &'static str {
        match self {
            FallbackCause::ChangelogOverflow => "changelog-overflow",
            FallbackCause::ChangelogFault => "changelog-fault",
        }
    }
}

/// One cause of observe-side degradation, labelled for telemetry and
/// for the runtime health state machine's `Degraded{reasons}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeReason {
    /// At least one entry is a carried-forward stale splice.
    CarryForward,
    /// At least one table sits in the quarantine set.
    Quarantine,
    /// At least one quarantined table exhausted its carry budget and
    /// reads as [`TableObservation::Missing`] until it heals.
    Retired,
    /// The changelog degraded (overflow or fault) and the pass fell
    /// back to a full observe.
    ChangelogFallback,
    /// The listing read faulted transiently and was retried.
    ListingRetry,
    /// The changelog read faulted transiently and was retried.
    ChangelogRetry,
    /// The listing read kept faulting; the prior listing was reused.
    ListingStale,
}

impl DegradeReason {
    /// Interned telemetry label for this reason.
    pub fn label(&self) -> &'static str {
        match self {
            DegradeReason::CarryForward => "carry-forward",
            DegradeReason::Quarantine => "quarantine",
            DegradeReason::Retired => "retired",
            DegradeReason::ChangelogFallback => "changelog-fallback",
            DegradeReason::ListingRetry => "listing-retry",
            DegradeReason::ChangelogRetry => "changelog-retry",
            DegradeReason::ListingStale => "listing-stale",
        }
    }
}

// The recovery policy of the observe driver (see the module docs'
// degradation contract): capped-exponential retry-with-deadline for
// listing/changelog reads, carry-forward + quarantine for per-table
// stats reads. Read backoffs are notional — the driver never sleeps, the
// accumulated wait is charged against the deadline — and quarantine
// backoffs count observe *passes* (the observe path has no wall clock).

/// Extra attempts after a transient listing/changelog fault.
const MAX_READ_RETRIES: u32 = 3;
/// Base and ceiling of one read retry's backoff (the act-phase shape).
const RETRY_BACKOFF_MS: u64 = 250;
const RETRY_BACKOFF_CAP_MS: u64 = 2_000;
/// Cumulative backoff budget per read; a retry past it gives up instead.
const RETRY_DEADLINE_MS: u64 = 4_000;
/// Consecutive faulted fetches a table's stale prior entry may be
/// carried before the entry is retired to `Missing`.
const MAX_CARRY_ATTEMPTS: u32 = 8;
/// Base and ceiling of the quarantine backoff, in passes (both at least
/// one: a quarantined table is never retried sooner than the next pass).
const QUARANTINE_BACKOFF_PASSES: u64 = 1;
const QUARANTINE_BACKOFF_CAP_PASSES: u64 = 8;

/// Quarantine record of one table whose stats read faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quarantined {
    /// Consecutive faulted fetch attempts.
    pub attempts: u32,
    /// Pass at which the backoff expires and the table is
    /// re-force-dirtied automatically.
    pub release_pass: u64,
    /// `true` while the entry is the carried-forward stale splice;
    /// `false` once it was retired to `Missing` (carry budget spent, or
    /// nothing to carry).
    pub carried: bool,
}

/// Degradation metadata of one observe pass: what faulted, what was
/// carried, and what the recovery machinery is tracking. Rides on the
/// [`FleetObservation`] but is excluded from its equality — it
/// describes how the snapshot was obtained, not fleet content.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObserveDegradation {
    /// Monotone observe-pass counter along the observation chain.
    /// Quarantine backoffs are measured against it. Resets with a fresh
    /// chain (no prior) and on snapshot restore, which re-bases the
    /// quarantine releases onto it.
    pub pass: u64,
    /// Quarantined tables by uid: consecutive fault attempts, backoff
    /// release pass, and whether the entry is carried or retired.
    pub quarantine: BTreeMap<u64, Quarantined>,
    /// Stats reads that faulted this pass.
    pub stats_faults: u32,
    /// Transient listing-read retries spent this pass.
    pub listing_retries: u32,
    /// Transient changelog-read retries spent this pass.
    pub changelog_retries: u32,
    /// Consecutive passes the table listing has been reused because the
    /// listing read kept faulting (`0` = listing current).
    pub listing_stale_passes: u32,
    /// Why this pass abandoned the incremental path, if it did.
    pub fallback: Option<FallbackCause>,
    /// The listing read faulted with no prior to carry: this
    /// observation is an empty husk and the loop is blind until the
    /// listing heals.
    pub stalled: bool,
}

impl ObserveDegradation {
    /// Entries currently carried forward (stale splices).
    pub fn carried_entries(&self) -> usize {
        self.quarantine.values().filter(|q| q.carried).count()
    }

    /// Entries retired to `Missing` after exhausting their carry budget.
    pub fn retired_entries(&self) -> usize {
        self.quarantine.values().filter(|q| !q.carried).count()
    }

    /// Number of quarantined tables.
    pub fn quarantine_depth(&self) -> usize {
        self.quarantine.len()
    }

    /// Whether this pass ran (or is still running) degraded in any way.
    pub fn is_degraded(&self) -> bool {
        self.stalled || !self.reasons().is_empty()
    }

    /// Active degradation reasons, in a fixed deterministic order.
    pub fn reasons(&self) -> Vec<DegradeReason> {
        let mut out = Vec::new();
        if self.carried_entries() > 0 {
            out.push(DegradeReason::CarryForward);
        }
        if !self.quarantine.is_empty() {
            out.push(DegradeReason::Quarantine);
        }
        if self.retired_entries() > 0 {
            out.push(DegradeReason::Retired);
        }
        if self.fallback.is_some() {
            out.push(DegradeReason::ChangelogFallback);
        }
        if self.listing_retries > 0 {
            out.push(DegradeReason::ListingRetry);
        }
        if self.changelog_retries > 0 {
            out.push(DegradeReason::ChangelogRetry);
        }
        if self.listing_stale_passes > 0 {
            out.push(DegradeReason::ListingStale);
        }
        out
    }

    /// Uids whose quarantine backoff has expired by `pass` (due for a
    /// forced re-fetch).
    pub fn due_for_retry(&self, pass: u64) -> Vec<u64> {
        self.quarantine
            .iter()
            .filter(|(_, q)| q.release_pass <= pass)
            .map(|(uid, _)| *uid)
            .collect()
    }
}

/// Hash map keyed by table uid: the observation's uid index and the
/// splice walk's generation lookup.
pub(crate) type UidMap<V> = HashMap<u64, V, UidHashState>;

/// Uid → listing-position index of one listing, and the key space of a
/// [`DirtySet`] over it: every uid the index can place has one *slot*.
#[derive(Debug)]
pub(crate) struct UidIndex {
    slots: Slots,
    /// `(uid, position)` for every position of a uid listed more than
    /// once other than the one [`Self::get`] answers, ordered by uid.
    /// Empty for a listing without repeats.
    repeats: Vec<(u64, u32)>,
}

/// How a [`UidIndex`] places uids.
#[derive(Debug)]
enum Slots {
    /// The listed uids span at most [`DENSE_SPAN`] uids per listed table
    /// from `base`. Every uid in the span, listed or not, has the slot
    /// `uid - base`, and `by_offset[slot]` is its position, or
    /// [`NOT_LISTED`]. A mark is then a bit set with no probe.
    Dense { base: u64, by_offset: Vec<u32> },
    /// Any other uid set: a listed uid's slot is its position, found by
    /// hashing.
    Hashed(UidMap<u32>),
}

/// Uids per listed table a dense index may span. At 2 its position
/// table takes at most half the bytes of the hashed one.
const DENSE_SPAN: u64 = 2;

impl UidIndex {
    fn new(tables: &[TableRef]) -> Self {
        let uids = tables.iter().map(|t| t.table_uid);
        let mut repeats = Vec::new();
        let slots = match uids.clone().min().zip(uids.max()) {
            Some((base, max)) if max - base < DENSE_SPAN * tables.len() as u64 => {
                let mut by_offset = vec![NOT_LISTED; (max - base) as usize + 1];
                for (i, table) in tables.iter().enumerate() {
                    let slot = &mut by_offset[(table.table_uid - base) as usize];
                    if *slot != NOT_LISTED {
                        repeats.push((table.table_uid, *slot));
                    }
                    *slot = i as u32;
                }
                Slots::Dense { base, by_offset }
            }
            _ => {
                let mut by_uid =
                    UidMap::with_capacity_and_hasher(tables.len(), UidHashState::default());
                for (i, table) in tables.iter().enumerate() {
                    if let Some(earlier) = by_uid.insert(table.table_uid, i as u32) {
                        repeats.push((table.table_uid, earlier));
                    }
                }
                Slots::Hashed(by_uid)
            }
        };
        repeats.sort_unstable();
        UidIndex { slots, repeats }
    }

    /// Listing position of `uid`: its last, for a uid listed more than
    /// once.
    fn get(&self, uid: u64) -> Option<u32> {
        match &self.slots {
            Slots::Dense { by_offset, .. } => self
                .slot(uid)
                .map(|slot| by_offset[slot as usize])
                .filter(|pos| *pos != NOT_LISTED),
            Slots::Hashed(by_uid) => by_uid.get(&uid).copied(),
        }
    }

    /// The slot of `uid`, if the index places it.
    fn slot(&self, uid: u64) -> Option<u32> {
        match &self.slots {
            Slots::Dense { base, by_offset } => uid
                .checked_sub(*base)
                .filter(|offset| *offset < by_offset.len() as u64)
                .map(|offset| offset as u32),
            Slots::Hashed(by_uid) => by_uid.get(&uid).copied(),
        }
    }

    /// The uid of `slot` in the listing `tables` the index was built
    /// from.
    fn uid_of(&self, slot: u32, tables: &[TableRef]) -> u64 {
        match &self.slots {
            Slots::Dense { base, .. } => base + slot as u64,
            Slots::Hashed(_) => tables[slot as usize].table_uid,
        }
    }

    /// Every position listing the uid of `slot`: none for a dense slot
    /// whose uid is not listed.
    fn positions_of<'a>(
        &'a self,
        slot: u32,
        tables: &[TableRef],
    ) -> impl Iterator<Item = u32> + 'a {
        let pos = match &self.slots {
            Slots::Dense { by_offset, .. } => by_offset[slot as usize],
            Slots::Hashed(_) => slot,
        };
        let uid = self.uid_of(slot, tables);
        let start = self.repeats.partition_point(|(u, _)| *u < uid);
        let repeats = self.repeats[start..]
            .iter()
            .take_while(move |(u, _)| *u == uid)
            .map(|(_, pos)| *pos);
        (pos != NOT_LISTED)
            .then_some(pos)
            .into_iter()
            .chain(repeats)
    }
}

/// A bitmap that grows to its highest set bit.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bits(Vec<u64>);

impl Bits {
    /// Sets bit `i`; whether it was clear.
    pub(crate) fn set(&mut self, i: u32) -> bool {
        let w = i as usize / 64;
        if w >= self.0.len() {
            self.0.resize(w + 1, 0);
        }
        let (word, bit) = (&mut self.0[w], 1u64 << (i % 64));
        let clear = *word & bit == 0;
        *word |= bit;
        clear
    }

    /// Clears bit `i`; whether it was set.
    pub(crate) fn clear(&mut self, i: u32) -> bool {
        let Some(word) = self.0.get_mut(i as usize / 64) else {
            return false;
        };
        let bit = 1u64 << (i % 64);
        let set = *word & bit != 0;
        *word &= !bit;
        set
    }

    /// Sets bit `i` when `on`, else clears it; whether it changed.
    pub(crate) fn put(&mut self, i: u32, on: bool) -> bool {
        match on {
            true => self.set(i),
            false => self.clear(i),
        }
    }

    pub(crate) fn contains(&self, i: u32) -> bool {
        self.0
            .get(i as usize / 64)
            .is_some_and(|word| word >> (i % 64) & 1 != 0)
    }

    /// Number of set bits.
    pub(crate) fn count(&self) -> usize {
        self.0.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// The set bits, ascending.
    pub(crate) fn ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().enumerate().flat_map(|(w, word)| {
            let mut word = *word;
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros();
                    word &= word - 1;
                    w as u32 * 64 + bit
                })
            })
        })
    }
}

impl Bits {
    /// The bits below `len` that are clear here.
    pub(crate) fn complement(&self, len: usize) -> Bits {
        let word = |w| !self.0.get(w).copied().unwrap_or(0);
        let mut words: Vec<u64> = (0..len.div_ceil(64)).map(word).collect();
        if let Some(last) = words.last_mut().filter(|_| !len.is_multiple_of(64)) {
            *last &= (1 << (len % 64)) - 1;
        }
        Bits(words)
    }
}

/// Bit `i` set for each `i`-th item that is `true`, packed a word at a
/// time.
impl FromIterator<bool> for Bits {
    fn from_iter<I: IntoIterator<Item = bool>>(items: I) -> Self {
        let mut words = Vec::new();
        for (i, on) in items.into_iter().enumerate() {
            if i.is_multiple_of(64) {
                words.push(0);
            }
            *words.last_mut().expect("pushed above") |= (on as u64) << (i % 64);
        }
        Bits(words)
    }
}

/// Pending dirty marks — tables a pass re-fetches whatever the
/// changelog says — placed in the listing of the observation they were
/// marked against (see [`ObserveRequest::force_dirty`]).
///
/// A marked uid is one bit at its slot in that listing's uid index: its
/// offset from the smallest listed uid when the listing's uids are
/// dense, its listing position otherwise. A uid the index cannot place
/// (a mark made before the first observe, or outside the listing's uid
/// span) goes to a side set. A mark is check-and-set and the
/// distinct-uid count is kept as marks land, so the dirty backlog reads
/// in O(1). The set holds on to the listing it is keyed over, so a pass
/// whose prior is another observation places the marked uids again in
/// that prior's index. The pass's changelog sets the same bits; its
/// plan turns them into listing positions, every position a uid is
/// listed at, in position order.
#[derive(Debug, Clone, Default)]
pub struct DirtySet {
    /// The listing, and its uid index, the bits are keyed over; `None`
    /// until a mark is made against an observation.
    key: Option<SlotKey>,
    /// One bit per slot of the uid index.
    bits: Bits,
    /// Distinct uids marked in `bits`.
    slotted: usize,
    /// Marked uids the uid index does not place.
    unslotted: HashSet<u64, UidHashState>,
}

/// The listing, and its uid index, whose slots a [`DirtySet`] is keyed
/// over.
#[derive(Debug, Clone)]
struct SlotKey {
    tables: Arc<Vec<TableRef>>,
    index: Arc<OnceLock<UidIndex>>,
}

impl SlotKey {
    fn of(observation: &FleetObservation) -> Self {
        SlotKey {
            tables: Arc::clone(&observation.tables),
            index: Arc::clone(&observation.uid_index),
        }
    }

    fn index(&self) -> &UidIndex {
        self.index.get_or_init(|| UidIndex::new(&self.tables))
    }
}

impl DirtySet {
    /// Distinct uids marked.
    pub fn len(&self) -> usize {
        self.slotted + self.unslotted.len()
    }

    /// Whether no uid is marked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The marked uids, ascending, each once. An override of
    /// [`LakeConnector::observe`] re-fetches these besides the
    /// changelog's uids.
    pub fn uids(&self) -> Vec<u64> {
        let mut uids: Vec<u64> = self.unslotted.iter().copied().collect();
        if let Some(key) = self.key.as_ref().filter(|_| self.slotted > 0) {
            let index = key.index();
            uids.extend(self.bits.ones().map(|slot| index.uid_of(slot, &key.tables)));
        }
        uids.sort_unstable();
        uids
    }

    /// Marks `uid` against `observation`'s listing, or in the side set
    /// when there is none or its index does not place the uid. Every
    /// mark of one set is made against the same listing.
    fn mark(&mut self, observation: Option<&FleetObservation>, uid: u64) {
        if let Some(observation) = observation {
            let key = self.key.get_or_insert_with(|| SlotKey::of(observation));
            debug_assert!(Arc::ptr_eq(&key.index, &observation.uid_index));
            if self.mark_slotted(observation.uid_index(), uid) {
                return;
            }
        }
        self.unslotted.insert(uid);
    }

    /// Marks `uid`'s slot; `false`, with nothing marked, when `index`
    /// does not place it.
    fn mark_slotted(&mut self, index: &UidIndex, uid: u64) -> bool {
        let Some(slot) = index.slot(uid) else {
            return false;
        };
        if self.bits.set(slot) {
            self.slotted += 1;
        }
        true
    }

    /// The same marks keyed over `observation`'s listing: the set itself
    /// when it already is, else every marked uid placed again.
    fn over(self, observation: &FleetObservation) -> DirtySet {
        if self
            .key
            .as_ref()
            .is_some_and(|key| Arc::ptr_eq(&key.index, &observation.uid_index))
        {
            return self;
        }
        let mut set = DirtySet {
            key: Some(SlotKey::of(observation)),
            ..DirtySet::default()
        };
        for uid in self.uids() {
            set.mark(Some(observation), uid);
        }
        set
    }

    /// The marked positions of the listing the set is keyed over.
    fn positions(&self) -> Bits {
        let mut positions = Bits::default();
        if let Some(key) = self.key.as_ref().filter(|_| self.slotted > 0) {
            let index = key.index();
            for slot in self.bits.ones() {
                for pos in index.positions_of(slot, &key.tables) {
                    positions.set(pos);
                }
            }
        }
        positions
    }
}

/// Hasher factory of one [`UidMap`]. Uids are plain integers probed once
/// per dirty table or mark, so one splitmix64 finalizer replaces
/// SipHash's rounds. The finalizer alone is a fixed bijection: whoever
/// picks table uids could choose a set that shares one bucket. Each map
/// therefore draws a key from [`RandomState`] and hashes `uid ^ key`,
/// which keeps its bucket layout as unpredictable from outside as
/// std's default hasher.
#[derive(Debug, Clone)]
pub(crate) struct UidHashState {
    key: u64,
}

impl Default for UidHashState {
    fn default() -> Self {
        UidHashState {
            key: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for UidHashState {
    type Hasher = UidHasher;

    fn build_hasher(&self) -> UidHasher {
        UidHasher {
            key: self.key,
            hash: 0,
        }
    }
}

/// One [`UidHashState`] hash: the splitmix64 finalizer of `uid ^ key`.
pub(crate) struct UidHasher {
    key: u64,
    hash: u64,
}

impl Hasher for UidHasher {
    fn write_u64(&mut self, uid: u64) {
        let mut z = uid ^ self.key;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.hash = z ^ (z >> 31);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach a uid map; anything else folds a word at
        // a time.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(self.hash ^ u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Stats observed for one table, shaped by the scope strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum TableObservation {
    /// The table vanished mid-observe or yielded no stats in scope.
    Missing,
    /// Single-candidate stats (table scope, or snapshot-window scope).
    Table(CandidateStats),
    /// Per-partition stats, keyed by the connector's opaque labels.
    Partitions(Vec<(String, CandidateStats)>),
}

impl TableObservation {
    /// Number of candidates the entry yields.
    pub(crate) fn candidate_count(&self) -> usize {
        match self {
            TableObservation::Missing => 0,
            TableObservation::Table(_) => 1,
            TableObservation::Partitions(parts) => parts.len(),
        }
    }
}

/// A batched snapshot of the observable fleet: table descriptors plus
/// per-table stats in positional (index-aligned) form.
///
/// Observations are self-contained values: they can be held across
/// cycles, diffed against a change cursor, and consumed repeatedly by
/// index without further connector round-trips. The entries are one
/// vector, one per listed table, behind an `Arc`: handing an observation
/// to the next pass as its prior lets that pass patch the vector in
/// place, and a clone held elsewhere keeps its values because the pass
/// then copies the vector first (see the module docs).
#[derive(Debug, Clone)]
pub struct FleetObservation {
    scope: ScopeStrategy,
    tables: Arc<Vec<TableRef>>,
    /// Connector listing epoch the table list was captured under, if the
    /// connector reports one ([`LakeConnector::listing_epoch`]): lets the
    /// next incremental observe share this listing (one `Arc` bump)
    /// instead of re-materializing 100K descriptors per cycle.
    listing_epoch: Option<u64>,
    /// Per-table stats by listing position.
    entries: Arc<Vec<TableObservation>>,
    /// Lazily built uid → listing-position index, shared across the
    /// observation chain while no table moves: dirty marks and a
    /// changelog's uids find their positions with one lookup each
    /// instead of an O(n) walk. Also serves act-phase retry re-scoring
    /// ([`Self::position_of_uid`]).
    uid_index: Arc<OnceLock<UidIndex>>,
    cursor: Option<ChangeCursor>,
    /// Listing positions whose entry came from the connector *this
    /// pass*, ascending. Everything else was reused verbatim from the
    /// prior observation — the invariant downstream caches key on (see
    /// [`Self::is_fresh`]).
    fresh: Vec<u32>,
    /// `fresh` as a per-position flag. The next pass clears it through
    /// `fresh`, so a pass costs O(previous fresh + fresh), not O(tables).
    fresh_flags: Vec<bool>,
    /// Cursor of the prior observation this one was derived from
    /// incrementally; `None` for cold observations. Lets per-cycle caches
    /// verify they are splicing against the exact snapshot their rows
    /// were computed from.
    prior_cursor: Option<ChangeCursor>,
    /// Fault/degradation metadata of the pass that produced this
    /// observation (see the module docs' degradation contract). Not part
    /// of logical equality.
    degradation: ObserveDegradation,
}

impl PartialEq for FleetObservation {
    /// Logical equality: same scope, cursor, tables and per-table
    /// entries. How the snapshot was obtained (freshness, degradation)
    /// does not participate.
    fn eq(&self, other: &Self) -> bool {
        self.scope == other.scope
            && self.cursor == other.cursor
            && self.tables == other.tables
            && self.entries == other.entries
    }
}

impl FleetObservation {
    /// Lazily built uid → listing-position index, shared (one `Arc` bump)
    /// across consecutive observations over the same listing.
    fn uid_index(&self) -> &UidIndex {
        self.uid_index.get_or_init(|| UidIndex::new(&self.tables))
    }

    /// Listing position of `table_uid`, if the table is currently listed.
    /// Backed by the retained uid index (built once per listing, then
    /// shared across the incremental observation chain).
    pub fn position_of_uid(&self, table_uid: u64) -> Option<usize> {
        self.uid_index().get(table_uid).map(|p| p as usize)
    }

    /// Whether this observation shares its entry vector with `other`: a
    /// quiet pass hands its prior's vector on untouched, so it is still
    /// the one any clone of that prior holds. Diagnostic accessor for
    /// tests pinning that a quiet incremental observe does O(1) assembly
    /// work.
    pub fn entries_shared_with(&self, other: &FleetObservation) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
    }

    /// Shared handle on the table listing (for listing reuse across
    /// incremental observes, and for the decide state's listing key).
    pub(crate) fn tables_shared(&self) -> Arc<Vec<TableRef>> {
        Arc::clone(&self.tables)
    }

    /// Scope strategy the stats were fetched under.
    pub fn scope(&self) -> ScopeStrategy {
        self.scope
    }

    /// Change cursor as of this observation, if the connector supports
    /// one. Feed it back (via [`ObserveRequest::incremental`]) to observe
    /// only the delta next cycle.
    pub fn cursor(&self) -> Option<ChangeCursor> {
        self.cursor
    }

    /// Number of observed tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Observed table descriptors, in connector order.
    pub fn tables(&self) -> &[TableRef] {
        &self.tables
    }

    /// Connector listing epoch the table list was captured under, if any.
    pub fn listing_epoch(&self) -> Option<u64> {
        self.listing_epoch
    }

    /// Stats entry for the table at `index`.
    pub fn entry(&self, index: usize) -> &TableObservation {
        &self.entries[index]
    }

    /// Tables whose entry came from the connector this pass: successful
    /// fetches plus faulted ones retired to `Missing`. Exactly the
    /// [`is_fresh`](Self::is_fresh) entries.
    pub fn fetched_tables(&self) -> usize {
        self.fresh.len()
    }

    /// Tables whose entry was reused from the prior observation,
    /// carried-forward faulted ones included.
    pub fn reused_tables(&self) -> usize {
        self.entries.len() - self.fresh.len()
    }

    /// Whether the entry at `index` was fetched from the connector *this
    /// pass* (as opposed to reused verbatim from the prior observation).
    /// Full observes are fresh everywhere but at carried-forward faulted
    /// tables; incremental observations are fresh exactly for the dirty
    /// set — changelog hits, `force_dirty` tables (even when the
    /// changelog missed them), and newly listed tables — minus carries.
    /// Downstream per-table caches must invalidate on fresh entries: a
    /// fresh entry's stats may differ from the prior cycle's.
    pub fn is_fresh(&self, index: usize) -> bool {
        self.fresh_flags[index]
    }

    /// Listing positions of the [fresh](Self::is_fresh) entries,
    /// ascending.
    pub(crate) fn fresh_positions(&self) -> &[u32] {
        &self.fresh
    }

    /// Cursor of the prior observation this one was incrementally derived
    /// from, or `None` for cold observations. A cache keyed on the cursor
    /// chain splices only when this matches the cursor of the observation
    /// its rows were computed against.
    pub fn prior_cursor(&self) -> Option<ChangeCursor> {
        self.prior_cursor
    }

    /// Degradation metadata of the pass that produced this observation:
    /// carried/quarantined tables, retries spent, fallback cause,
    /// listing staleness. Empty on a fault-free pass.
    pub fn degradation(&self) -> &ObserveDegradation {
        &self.degradation
    }

    /// Number of candidates [`to_candidates`](Self::to_candidates) will
    /// produce.
    pub fn candidate_count(&self) -> usize {
        self.entries
            .iter()
            .map(TableObservation::candidate_count)
            .sum()
    }

    pub(crate) fn single_scope(&self) -> ScopeKind {
        match self.scope {
            ScopeStrategy::Snapshot { .. } => ScopeKind::Snapshot,
            _ => ScopeKind::Table,
        }
    }

    /// Materializes the candidates of this observation, in deterministic
    /// order: tables in connector order, partitions in connector-reported
    /// order (NFR2) — exactly the output of the per-table pull path over
    /// the same lake state.
    pub fn to_candidates(&self) -> Vec<Candidate> {
        let single_scope = self.single_scope();
        let mut out = Vec::with_capacity(self.candidate_count());
        for (index, table) in self.tables.iter().enumerate() {
            match self.entry(index) {
                TableObservation::Missing => {}
                TableObservation::Table(stats) => {
                    let id = CandidateId {
                        table_uid: table.table_uid,
                        scope: single_scope,
                        partition: None,
                    };
                    out.push(Candidate::new(id, table, stats.clone()));
                }
                TableObservation::Partitions(parts) => {
                    for (label, stats) in parts {
                        out.push(Candidate::new(
                            CandidateId::partition(table.table_uid, label.clone()),
                            table,
                            stats.clone(),
                        ));
                    }
                }
            }
        }
        out
    }
}

impl FleetObservation {
    /// Writes the observation into a snapshot: scope, cursor keys, the
    /// table listing (database names interned) and every entry's stats
    /// in positional order.
    pub(crate) fn snapshot_write(&self, enc: &mut lakesim_storage::Encoder) {
        crate::durability::put_scope(enc, self.scope);
        enc.put_opt_u64(self.listing_epoch);
        enc.put_opt_u64(self.cursor.map(|c| c.0));
        // Distinct database names once, then per-table indexes. Tables of
        // one database share its `Arc<str>`, so each allocation's name is
        // hashed once and the tables after it resolve by pointer.
        let mut databases: Vec<&str> = Vec::new();
        let mut by_name: HashMap<&str, u32> = HashMap::new();
        let mut by_arc: HashMap<*const u8, u32> = HashMap::new();
        let db_of: Vec<u32> = self
            .tables
            .iter()
            .map(|table| {
                *by_arc.entry(table.database.as_ptr()).or_insert_with(|| {
                    *by_name.entry(&table.database).or_insert_with(|| {
                        databases.push(&table.database);
                        databases.len() as u32 - 1
                    })
                })
            })
            .collect();
        enc.put_u64(databases.len() as u64);
        for db in &databases {
            enc.put_str(db);
        }
        enc.put_u64(self.tables.len() as u64);
        for (table, db) in self.tables.iter().zip(db_of) {
            enc.put_u64(table.table_uid);
            enc.put_u32(db);
            // The three descriptor booleans pack into one flags byte so
            // the fixed head of a table record is a single 13-byte read
            // on restore.
            enc.put_u8(
                table.partitioned as u8
                    | (table.compaction_enabled as u8) << 1
                    | (table.is_intermediate as u8) << 2,
            );
            enc.put_str(&table.name);
        }
        for entry in self.entries.iter() {
            put_entry(enc, entry);
        }
        self.put_quarantine(enc);
    }

    /// Quarantine records, their release as passes still to wait: a
    /// carried entry must come back for its re-fetch after a restore
    /// exactly when it would have without one.
    fn put_quarantine(&self, enc: &mut lakesim_storage::Encoder) {
        let deg = &self.degradation;
        enc.put_u64(deg.quarantine.len() as u64);
        for (uid, q) in &deg.quarantine {
            enc.put_u64(*uid);
            enc.put_u32(q.attempts);
            enc.put_bool(q.carried);
            enc.put_u64(q.release_pass.saturating_sub(deg.pass));
        }
    }

    /// Writes the observation section of a snapshot delta over a base
    /// that holds this observation's listing: the scope and cursor keys,
    /// the entries at the `changed` positions, each after its position,
    /// and the quarantine records.
    pub(crate) fn snapshot_write_delta(&self, enc: &mut lakesim_storage::Encoder, changed: &Bits) {
        crate::durability::put_scope(enc, self.scope);
        enc.put_opt_u64(self.listing_epoch);
        enc.put_opt_u64(self.cursor.map(|c| c.0));
        enc.put_u64(self.tables.len() as u64);
        enc.put_u64(changed.count() as u64);
        for pos in changed.ones() {
            enc.put_u32(pos);
            put_entry(enc, &self.entries[pos as usize]);
        }
        self.put_quarantine(enc);
    }

    /// Restores an observation from a snapshot. The result is marked
    /// nowhere-fresh (no fresh position, `prior_cursor = None`): its
    /// entries are reused state, not a new fetch, and the *next*
    /// incremental observe derives freshness from the changelog against
    /// the restored cursor exactly as it would have against the
    /// original. Quarantine records restore re-based to pass 0, so every
    /// quarantined table is re-fetched on the pass it was due.
    ///
    /// With a `delta` over the snapshot, the delta's entries take the
    /// place of the base's at their positions as the base is decoded in
    /// order (the superseded base entries are skipped, not built), and
    /// its scope and cursor keys and quarantine records replace the
    /// base's.
    pub(crate) fn snapshot_restore(
        dec: &mut lakesim_storage::Decoder<'_>,
        delta: Option<ObservationDelta>,
    ) -> Result<FleetObservation, lakesim_storage::CodecError> {
        use lakesim_storage::CodecError;
        let mut scope = crate::durability::take_scope(dec)?;
        let mut listing_epoch = dec.take_opt_u64("listing epoch")?;
        let mut cursor = dec.take_opt_u64("observation cursor")?.map(ChangeCursor);
        let db_count = dec.take_len(8, "database table")?;
        let mut databases: Vec<Arc<str>> = Vec::with_capacity(db_count);
        for _ in 0..db_count {
            databases.push(Arc::from(dec.take_str("database name")?));
        }
        // The fleet-scale loops below preallocate exactly and decode
        // each record's fixed head with one bounds check — restore cost
        // is what the warm-vs-cold tradeoff hinges on, so the decode
        // side is kept at memcpy-like cost where the layout allows.
        let table_count = dec.take_len(14, "table listing")?;
        let mut tables = Vec::with_capacity(table_count);
        for _ in 0..table_count {
            let head = dec.take_raw(13, "table record")?;
            let table_uid = u64::from_le_bytes(head[..8].try_into().unwrap());
            let db = u32::from_le_bytes(head[8..12].try_into().unwrap()) as usize;
            let flags = head[12];
            if flags > 0b111 {
                return Err(CodecError::Invalid("table flags"));
            }
            let database = databases
                .get(db)
                .cloned()
                .ok_or(CodecError::Invalid("table database index out of bounds"))?;
            // Table names are near-unique across a fleet, so they are
            // allocated directly; interning them (as the listing path
            // does for databases) would cost a map lookup per table
            // for no sharing. Database names share through the
            // snapshot's own distinct-name table above.
            let name = Arc::from(dec.take_str("table name")?);
            tables.push(TableRef {
                table_uid,
                database,
                name,
                partitioned: flags & 1 != 0,
                compaction_enabled: flags & 2 != 0,
                is_intermediate: flags & 4 != 0,
            });
        }
        let mut stats = Vec::with_capacity(table_count);
        let quarantine = match delta {
            None => {
                for _ in 0..table_count {
                    stats.push(take_entry(dec)?);
                }
                take_quarantine(dec)?
            }
            Some(delta) => {
                if delta.tables != table_count as u64 {
                    return Err(CodecError::Invalid("delta listing differs from the base's"));
                }
                let mut patches = delta.positions.into_iter().zip(delta.entries).peekable();
                for pos in 0..table_count {
                    match patches.next_if(|(at, _)| *at as usize == pos) {
                        Some((_, entry)) => {
                            skip_entry(dec)?;
                            stats.push(entry);
                        }
                        None => stats.push(take_entry(dec)?),
                    }
                }
                if patches.next().is_some() {
                    return Err(CodecError::Invalid("delta position"));
                }
                take_quarantine(dec)?;
                (scope, listing_epoch, cursor) = (delta.scope, delta.listing_epoch, delta.cursor);
                delta.quarantine
            }
        };
        Ok(FleetObservation {
            scope,
            fresh: Vec::new(),
            fresh_flags: vec![false; table_count],
            tables: Arc::new(tables),
            listing_epoch,
            entries: Arc::new(stats),
            uid_index: Arc::new(OnceLock::new()),
            cursor,
            prior_cursor: None,
            // The chain restarts at pass 0 with its quarantine re-based
            // onto it; the per-pass fault counters start clean.
            degradation: ObserveDegradation {
                quarantine,
                ..ObserveDegradation::default()
            },
        })
    }
}

/// The observation section of a snapshot delta, decoded ahead of its
/// base so that the base's decode takes the delta's entries in stride
/// (see [`FleetObservation::snapshot_restore`]).
pub(crate) struct ObservationDelta {
    scope: ScopeStrategy,
    listing_epoch: Option<u64>,
    cursor: Option<ChangeCursor>,
    /// Tables in the listing the delta was taken over.
    tables: u64,
    /// The positions the delta replaces, ascending, and their entries.
    pub(crate) positions: Vec<u32>,
    entries: Vec<TableObservation>,
    quarantine: BTreeMap<u64, Quarantined>,
}

impl ObservationDelta {
    /// Reads what [`FleetObservation::snapshot_write_delta`] wrote.
    pub(crate) fn read(
        dec: &mut lakesim_storage::Decoder<'_>,
    ) -> Result<Self, lakesim_storage::CodecError> {
        let scope = crate::durability::take_scope(dec)?;
        let listing_epoch = dec.take_opt_u64("listing epoch")?;
        let cursor = dec.take_opt_u64("observation cursor")?.map(ChangeCursor);
        let tables = dec.take_u64("delta table count")?;
        let count = dec.take_len(5, "delta entries")?;
        let (mut positions, mut entries) = (Vec::with_capacity(count), Vec::with_capacity(count));
        for _ in 0..count {
            let pos = dec.take_u32("delta position")?;
            if positions.last().is_some_and(|p| *p >= pos) {
                return Err(lakesim_storage::CodecError::Invalid("delta position"));
            }
            positions.push(pos);
            entries.push(take_entry(dec)?);
        }
        Ok(ObservationDelta {
            scope,
            listing_epoch,
            cursor,
            tables,
            positions,
            entries,
            quarantine: take_quarantine(dec)?,
        })
    }
}

/// Writes one entry of a snapshot's observation section.
fn put_entry(enc: &mut lakesim_storage::Encoder, entry: &TableObservation) {
    use crate::durability::put_stats;
    match entry {
        TableObservation::Missing => enc.put_u8(0),
        TableObservation::Table(stats) => {
            enc.put_u8(1);
            put_stats(enc, stats);
        }
        TableObservation::Partitions(parts) => {
            enc.put_u8(2);
            enc.put_u64(parts.len() as u64);
            for (label, stats) in parts {
                enc.put_str(label);
                put_stats(enc, stats);
            }
        }
    }
}

fn take_entry(
    dec: &mut lakesim_storage::Decoder<'_>,
) -> Result<TableObservation, lakesim_storage::CodecError> {
    use crate::durability::take_stats;
    use lakesim_storage::CodecError;
    Ok(match dec.take_u8("entry tag")? {
        0 => TableObservation::Missing,
        1 => TableObservation::Table(take_stats(dec)?),
        2 => {
            let parts = (0..dec.take_len(8, "partition entries")?)
                .map(|_| {
                    Ok((
                        dec.take_str("partition label")?.to_string(),
                        take_stats(dec)?,
                    ))
                })
                .collect::<Result<Vec<_>, CodecError>>()?;
            TableObservation::Partitions(parts)
        }
        _ => return Err(CodecError::Invalid("entry tag")),
    })
}

/// Steps over one entry of a snapshot's observation section without
/// building it.
fn skip_entry(dec: &mut lakesim_storage::Decoder<'_>) -> Result<(), lakesim_storage::CodecError> {
    use crate::durability::skip_stats;
    match dec.take_u8("entry tag")? {
        0 => {}
        1 => skip_stats(dec)?,
        2 => {
            for _ in 0..dec.take_len(8, "partition entries")? {
                dec.take_str("partition label")?;
                skip_stats(dec)?;
            }
        }
        _ => return Err(lakesim_storage::CodecError::Invalid("entry tag")),
    }
    Ok(())
}

/// Reads quarantine records, re-based to pass 0.
fn take_quarantine(
    dec: &mut lakesim_storage::Decoder<'_>,
) -> Result<BTreeMap<u64, Quarantined>, lakesim_storage::CodecError> {
    let mut quarantine = BTreeMap::new();
    for _ in 0..dec.take_len(21, "quarantine records")? {
        let uid = dec.take_u64("quarantined uid")?;
        let record = Quarantined {
            attempts: dec.take_u32("quarantine attempts")?,
            carried: dec.take_bool("quarantine carried")?,
            release_pass: dec.take_u64("quarantine passes left")?,
        };
        quarantine.insert(uid, record);
    }
    Ok(quarantine)
}

/// Threads incremental observe state — the prior observation plus
/// externally marked dirty tables — through consecutive cycles.
#[derive(Debug, Default)]
pub struct FleetObserver {
    prior: Option<FleetObservation>,
    /// Tables marked dirty since the last observe, keyed on `prior`'s
    /// uid index; the next observe takes the set whole.
    pending_dirty: DirtySet,
}

impl FleetObserver {
    /// A fresh observer; its first observe is always a full fetch.
    pub fn new() -> Self {
        FleetObserver::default()
    }

    /// Marks a table dirty so the next observe re-fetches its stats even
    /// if the connector's changelog missed the write — the landing point
    /// for §5 [`HookAction::MarkDirty`](crate::trigger::HookAction).
    pub fn mark_dirty(&mut self, table_uid: u64) {
        self.pending_dirty.mark(self.prior.as_ref(), table_uid);
    }

    /// Drops the retained observation; the next observe is full.
    pub fn reset(&mut self) {
        self.prior = None;
        self.pending_dirty = DirtySet::default();
    }

    /// The most recent observation, if any.
    pub fn last(&self) -> Option<&FleetObservation> {
        self.prior.as_ref()
    }

    /// Observes through `connector`, incrementally when possible, and
    /// retains the result for the next cycle.
    pub fn observe(
        &mut self,
        connector: &dyn LakeConnector,
        scope: ScopeStrategy,
    ) -> &FleetObservation {
        let observation = connector.observe(ObserveRequest {
            scope,
            prior: self.prior.take(),
            force_dirty: std::mem::take(&mut self.pending_dirty),
        });
        self.prior.insert(observation)
    }

    /// Distinct tables marked dirty but not yet folded into an observe:
    /// the runtime's dirty backlog.
    pub(crate) fn dirty_backlog(&self) -> usize {
        self.pending_dirty.len()
    }

    /// The tables [`dirty_backlog`](Self::dirty_backlog) counts, by uid
    /// ascending: what snapshots capture, so a restore re-fetches
    /// exactly what a crash-free run would have.
    pub(crate) fn pending_dirty_uids(&self) -> Vec<u64> {
        self.pending_dirty.uids()
    }

    /// Installs a snapshot-restored observation as the prior for the
    /// next incremental observe, and marks its not-yet-consumed dirty
    /// uids against it.
    pub(crate) fn restore_prior(&mut self, observation: FleetObservation, dirty: Vec<u64>) {
        self.prior = Some(observation);
        self.pending_dirty = DirtySet::default();
        for uid in dirty {
            self.mark_dirty(uid);
        }
    }
}

/// Shares `Arc<str>` name allocations across repeated interning — e.g.
/// the database names of a 100K-table fleet listed every cycle collapse
/// to one allocation per database instead of one per table.
#[derive(Debug, Default)]
pub struct NameInterner {
    map: BTreeMap<String, Arc<str>>,
}

impl NameInterner {
    /// A fresh, empty interner.
    pub fn new() -> Self {
        NameInterner::default()
    }

    /// Returns the shared `Arc<str>` for `name`, allocating on first use.
    pub fn get_or_intern(&mut self, name: &str) -> Arc<str> {
        if let Some(shared) = self.map.get(name) {
            return shared.clone();
        }
        let shared: Arc<str> = Arc::from(name);
        self.map.insert(name.to_string(), shared.clone());
        shared
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

// ---------------------------------------------------------------------
// The observe driver.
// ---------------------------------------------------------------------

/// How a pass's listing positions map onto the prior observation's.
enum Reuse {
    /// No table moved — the listing is `Arc::ptr_eq`-shared with the
    /// prior, or was re-read uid for uid: position `i` is prior position
    /// `i`.
    Identity,
    /// The listing was re-read: the prior position of each listed table,
    /// [`NOT_LISTED`] for a table the prior did not hold.
    Mapped(Vec<u32>),
}

/// [`Reuse::Mapped`] marker of a table absent from the prior listing.
const NOT_LISTED: u32 = u32::MAX;

/// What one pass takes from the prior observation and what it asks the
/// connector for.
struct Plan {
    /// How positions map onto the prior observation; `None` when there is
    /// none to reuse.
    reuse: Option<Reuse>,
    /// Listing positions asked of the connector, ascending. The fetch
    /// loop of [`pull_observe`] keeps those whose entry landed as the
    /// observation's fresh positions; a fault that carried the prior
    /// entry drops out.
    fetch: Vec<u32>,
    /// The changelog answered, so only dirty and newly listed tables are
    /// fetched and downstream caches may splice against the prior.
    incremental: bool,
}

impl Plan {
    /// Prior position of the table listed at `pos`, if the prior held it.
    fn prior_position(&self, pos: u32) -> Option<u32> {
        match &self.reuse {
            None => None,
            Some(Reuse::Identity) => Some(pos),
            Some(Reuse::Mapped(map)) => Some(map[pos as usize]).filter(|p| *p != NOT_LISTED),
        }
    }
}

/// Fetches one table's stats under `scope` — the exact per-scope calls of
/// the historical per-table pull protocol, preserved verbatim so batched
/// observations stay bit-identical to it. `Ok(None)` from a stats read
/// still means *vanished* and yields `Missing`; only `Err` (the read
/// failed) propagates for the carry-forward machinery to absorb.
fn fetch_one<C: LakeConnector + ?Sized>(
    connector: &C,
    table: &TableRef,
    scope: ScopeStrategy,
) -> Result<TableObservation, ObserveFault> {
    Ok(match scope {
        ScopeStrategy::Table => match connector.try_table_stats(table.table_uid)? {
            Some(stats) => TableObservation::Table(stats),
            None => TableObservation::Missing,
        },
        ScopeStrategy::Partition => {
            TableObservation::Partitions(connector.try_partition_stats(table.table_uid)?)
        }
        ScopeStrategy::Hybrid => {
            if table.partitioned {
                TableObservation::Partitions(connector.try_partition_stats(table.table_uid)?)
            } else {
                match connector.try_table_stats(table.table_uid)? {
                    Some(stats) => TableObservation::Table(stats),
                    None => TableObservation::Missing,
                }
            }
        }
        ScopeStrategy::Snapshot { window_ms } => {
            match connector.try_snapshot_stats(table.table_uid, window_ms)? {
                Some(stats) => TableObservation::Table(stats),
                None => TableObservation::Missing,
            }
        }
    })
}

/// Plans one pass over `tables`: which entries of `prior` are reusable
/// and which positions are fetched. `marks` holds the pass's marks;
/// `changes` is the resolved changelog answer
/// (`None`: every table is fetched). A re-read listing in which no table
/// moved plans as [`Reuse::Identity`], so the pass patches the prior's
/// entries in place and keeps its uid index.
fn make_plan(
    tables: &Arc<Vec<TableRef>>,
    prior: Option<&FleetObservation>,
    marks: DirtySet,
    changes: Option<&[u64]>,
) -> Plan {
    let every_position = || (0..tables.len() as u32).collect();
    let Some(prior) = prior else {
        return Plan {
            reuse: None,
            fetch: every_position(),
            incremental: false,
        };
    };
    // The marks, placed in the prior's listing if they were made against
    // another, and the changelog's uids become the prior's dirty listing
    // positions. A uid the prior does not list has no position: listed
    // now, it is fetched as a new table.
    let dirty = changes.map(|changes| {
        let mut marks = marks.over(prior);
        if !changes.is_empty() {
            let index = prior.uid_index();
            for uid in changes {
                marks.mark_slotted(index, *uid);
            }
        }
        marks.positions()
    });
    let incremental = dirty.is_some();
    if Arc::ptr_eq(tables, &prior.tables) {
        return Plan {
            reuse: Some(Reuse::Identity),
            fetch: dirty.map_or_else(every_position, |dirty| dirty.ones().collect()),
            incremental,
        };
    }
    // The common case — nothing moved — maps with a positional uid
    // comparison; the map, and the prior's uid index, are built only once
    // a position mismatches (tables created, dropped, or reordered).
    // `claimed` marks the prior positions handed out: a uid the listing
    // repeats takes its prior entry once and is fetched at its repeat.
    let prior_tables = prior.tables();
    let mut map = (tables.len() != prior_tables.len()).then(Vec::new);
    let mut claimed = vec![false; prior_tables.len()];
    let mut fetch = Vec::new();
    for (pos, t) in tables.iter().enumerate() {
        let unmoved = prior_tables
            .get(pos)
            .is_some_and(|p| p.table_uid == t.table_uid);
        if map.is_none() && !unmoved {
            map = Some((0..pos as u32).collect());
            claimed[..pos].fill(true);
        }
        let from = match &mut map {
            None => pos as u32,
            Some(map) => {
                let from = if unmoved {
                    Some(pos as u32)
                } else {
                    prior.uid_index().get(t.table_uid)
                };
                let from = from
                    .filter(|p| !std::mem::replace(&mut claimed[*p as usize], true))
                    .unwrap_or(NOT_LISTED);
                map.push(from);
                from
            }
        };
        if from == NOT_LISTED || dirty.as_ref().is_none_or(|dirty| dirty.contains(from)) {
            fetch.push(pos as u32);
        }
    }
    Plan {
        reuse: Some(map.map_or(Reuse::Identity, Reuse::Mapped)),
        fetch,
        incremental,
    }
}

/// Builds the pass's observation out of its prior before anything is
/// fetched: every position holds its carry value — the prior entry the
/// plan maps it to, `Missing` where there is none — and nothing reads as
/// fresh yet. The fetch loop then overwrites the positions that land. A
/// quiet pass hands the prior's vector on as is. `prior` is `Some` exactly
/// when `plan.reuse` is. No reused entry is cloned unless someone else
/// still holds the prior's entry vector (see the module docs).
fn assemble(
    scope: ScopeStrategy,
    tables: Arc<Vec<TableRef>>,
    listing_epoch: Option<u64>,
    cursor: Option<ChangeCursor>,
    plan: &Plan,
    prior: Option<FleetObservation>,
) -> FleetObservation {
    let n = tables.len();
    let prior_cursor = prior.as_ref().and_then(|p| p.cursor);
    let (entries, fresh_flags, uid_index) = match (prior, &plan.reuse) {
        // No position moved, so the retained uid index stays exact.
        (Some(mut prior), Some(Reuse::Identity)) => {
            for pos in prior.fresh {
                prior.fresh_flags[pos as usize] = false;
            }
            (prior.entries, prior.fresh_flags, prior.uid_index)
        }
        // Tables moved. No two positions share a prior position, so
        // reused entries move.
        (Some(mut prior), Some(Reuse::Mapped(map))) => {
            let old = Arc::make_mut(&mut prior.entries);
            let entries = map
                .iter()
                .map(|from| match *from {
                    NOT_LISTED => TableObservation::Missing,
                    from => std::mem::replace(&mut old[from as usize], TableObservation::Missing),
                })
                .collect();
            (Arc::new(entries), vec![false; n], Arc::default())
        }
        _ => (
            Arc::new(vec![TableObservation::Missing; n]),
            vec![false; n],
            Arc::default(),
        ),
    };
    debug_assert_eq!(entries.len(), n, "one entry per listed table");
    FleetObservation {
        scope,
        tables,
        listing_epoch,
        entries,
        uid_index,
        cursor,
        fresh: Vec::new(),
        fresh_flags,
        prior_cursor: prior_cursor.filter(|_| plan.incremental),
        degradation: ObserveDegradation::default(),
    }
}

/// Runs one fallible listing/changelog read under the recovery policy:
/// transient faults retry until the retry count or the notional-backoff
/// deadline is spent; permanent faults fail immediately. Returns the
/// final result plus the retries consumed.
fn retry_read<T>(
    mut attempt: impl FnMut() -> Result<T, ObserveFault>,
) -> (Result<T, ObserveFault>, u32) {
    let mut retries = 0u32;
    let mut waited = 0u64;
    loop {
        match attempt() {
            Ok(value) => return (Ok(value), retries),
            Err(fault) => {
                if !fault.is_transient() || retries >= MAX_READ_RETRIES {
                    return (Err(fault), retries);
                }
                let backoff = RETRY_BACKOFF_MS.saturating_mul(1 << retries.min(16));
                waited = waited.saturating_add(backoff.min(RETRY_BACKOFF_CAP_MS));
                if waited > RETRY_DEADLINE_MS {
                    return (Err(fault), retries);
                }
                retries += 1;
            }
        }
    }
}

/// The fallible front half of the driver: listing and changelog answers
/// resolved under the recovery policy.
struct ResolvedReads {
    tables: Arc<Vec<TableRef>>,
    listing_epoch: Option<u64>,
    /// Changelog answer (dirty uids since the prior cursor, plus
    /// quarantined tables whose backoff expired); `None` forces the
    /// full-fetch fallback.
    changes: Option<Vec<u64>>,
    deg: ObserveDegradation,
}

/// Resolves the table listing and (when an incremental pass is
/// structurally possible) the changelog answer, spending retries per
/// the policy and recording every degradation on the pass's
/// [`ObserveDegradation`]. Quarantined tables whose backoff expired are
/// folded into the dirty set here, so healing re-fetches happen
/// automatically on whichever path the pass takes.
fn resolve_reads(
    request: &ObserveRequest,
    connector_epoch: Option<u64>,
    try_list: impl FnMut() -> Result<Vec<TableRef>, ObserveFault>,
    mut try_changes: impl FnMut(ChangeCursor) -> Result<Option<Vec<u64>>, ObserveFault>,
) -> ResolvedReads {
    let prior = request.prior.as_ref();
    let mut deg = ObserveDegradation {
        pass: prior.map_or(0, |p| p.degradation.pass + 1),
        ..ObserveDegradation::default()
    };
    let mut listing_epoch = connector_epoch;
    // Listing reuse under an unchanged epoch costs no listing read at
    // all; otherwise the read retries transient faults and, exhausted,
    // carries the prior listing (keeping the prior's epoch so a healed
    // listing is re-read next pass).
    let tables = match (connector_epoch, prior) {
        (Some(e), Some(p)) if p.listing_epoch() == Some(e) => Some(p.tables_shared()),
        _ => {
            let (res, retries) = retry_read(try_list);
            deg.listing_retries = retries;
            match res {
                // A re-read listing equal to the prior's keeps the
                // prior's `Arc`, so everything keyed on it stays valid.
                Ok(listed) => Some(match prior {
                    Some(p) if p.tables() == listed.as_slice() => p.tables_shared(),
                    _ => Arc::new(listed),
                }),
                Err(_) => match prior {
                    Some(p) => {
                        deg.listing_stale_passes =
                            p.degradation.listing_stale_passes.saturating_add(1);
                        listing_epoch = p.listing_epoch();
                        Some(p.tables_shared())
                    }
                    None => None,
                },
            }
        }
    };
    let Some(tables) = tables else {
        deg.stalled = true;
        return ResolvedReads {
            tables: Arc::new(Vec::new()),
            listing_epoch: None,
            changes: None,
            deg,
        };
    };
    let mut changes = None;
    if let Some(p) = prior {
        if p.scope() == request.scope {
            if let Some(cursor) = p.cursor() {
                let (res, retries) = retry_read(|| try_changes(cursor));
                deg.changelog_retries = retries;
                match res {
                    Ok(Some(dirty)) => changes = Some(dirty),
                    // The prior pass obtained a cursor, so the connector
                    // has a change stream: `None` now means the cursor
                    // predates retention — definitive, no retry; one
                    // full observe resynchronizes.
                    Ok(None) => deg.fallback = Some(FallbackCause::ChangelogOverflow),
                    Err(_) => deg.fallback = Some(FallbackCause::ChangelogFault),
                }
            }
            if let Some(dirty) = &mut changes {
                dirty.extend(p.degradation.due_for_retry(deg.pass));
            }
        }
    }
    ResolvedReads {
        tables,
        listing_epoch,
        changes,
        deg,
    }
}

/// Applies the carry-forward/quarantine policy to one faulted stats
/// fetch. Returns `None` when the stale prior entry is carried (leave
/// it in place), or `Some(Missing)` when the entry retires — carry
/// budget spent, or nothing to carry.
fn absorb_stats_fault(
    uid: u64,
    can_carry: bool,
    prior_deg: &ObserveDegradation,
    deg: &mut ObserveDegradation,
) -> Option<TableObservation> {
    deg.stats_faults += 1;
    let attempts = prior_deg
        .quarantine
        .get(&uid)
        .map_or(0, |q| q.attempts)
        .saturating_add(1);
    let carried = can_carry && attempts <= MAX_CARRY_ATTEMPTS;
    // Capped-exponential in passes.
    let wait = QUARANTINE_BACKOFF_PASSES
        .saturating_mul(1 << (attempts - 1).min(16))
        .min(QUARANTINE_BACKOFF_CAP_PASSES);
    deg.quarantine.insert(
        uid,
        Quarantined {
            attempts,
            release_pass: deg.pass.saturating_add(wait),
            carried,
        },
    );
    if carried {
        None
    } else {
        Some(TableObservation::Missing)
    }
}

/// Carries prior quarantine records forward: tables still listed in
/// `obs`, not fresh and not re-faulted this pass keep their records
/// unchanged (their entries still read the carried or retired value,
/// awaiting their backoff).
fn carry_quarantine(
    prior_deg: &ObserveDegradation,
    obs: &FleetObservation,
    deg: &mut ObserveDegradation,
) {
    if prior_deg.quarantine.is_empty() {
        return;
    }
    for (uid, q) in &prior_deg.quarantine {
        let waiting = obs
            .position_of_uid(*uid)
            .is_some_and(|pos| !obs.is_fresh(pos));
        if waiting && !deg.quarantine.contains_key(uid) {
            deg.quarantine.insert(*uid, *q);
        }
    }
}

/// The observe driver, and the default every [`LakeConnector`] inherits:
/// list, plan, assemble the carry values, then fetch the planned tables
/// one at a time in listing order straight into their slots. Consumes
/// only the fallible `try_*` connector surface and degrades per the
/// module docs' contract instead of failing. A listing that stalled with
/// nothing to carry arrives here as an empty listing, so the husk is the
/// ordinary empty observation.
pub fn pull_observe<C: LakeConnector + ?Sized>(
    connector: &C,
    request: ObserveRequest,
) -> FleetObservation {
    let ResolvedReads {
        tables,
        listing_epoch,
        changes,
        mut deg,
    } = resolve_reads(
        &request,
        connector.listing_epoch(),
        || connector.try_list_tables(),
        |c| connector.try_changes_since(c),
    );
    let cursor = connector.fleet_cursor();
    let scope = request.scope;
    // A scope change drops carry and quarantine state with the prior:
    // its entries have the wrong shape.
    let mut prior = request.prior.filter(|p| p.scope() == scope);
    let mut plan = make_plan(
        &tables,
        prior.as_ref(),
        request.force_dirty,
        changes.as_deref(),
    );
    let prior_deg = prior
        .as_mut()
        .map(|p| std::mem::take(&mut p.degradation))
        .unwrap_or_default();
    let mut obs = assemble(scope, tables, listing_epoch, cursor, &plan, prior);
    // The positions that land are compacted to the front of the fetch
    // list, which becomes the observation's fresh list.
    let mut fresh = std::mem::take(&mut plan.fetch);
    if !fresh.is_empty() {
        let entries = Arc::make_mut(&mut obs.entries);
        let mut landed = 0;
        for i in 0..fresh.len() {
            let pos = fresh[i];
            let table = &obs.tables[pos as usize];
            entries[pos as usize] = match fetch_one(connector, table, scope) {
                Ok(entry) => entry,
                Err(_) => {
                    // A fault can carry iff the plan has a prior position
                    // for the table, until its carry budget runs out.
                    let can_carry = plan.prior_position(pos).is_some();
                    match absorb_stats_fault(table.table_uid, can_carry, &prior_deg, &mut deg) {
                        Some(retired) => retired,
                        // Carried: the slot keeps its prior entry.
                        None => continue,
                    }
                }
            };
            obs.fresh_flags[pos as usize] = true;
            fresh[landed] = pos;
            landed += 1;
        }
        fresh.truncate(landed);
    }
    obs.fresh = fresh;
    carry_quarantine(&prior_deg, &obs, &mut deg);
    obs.degradation = deg;
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// In-memory lake with a change log and fetch counters.
    struct ChangeLake {
        tables: Vec<TableRef>,
        /// Uids left out of the listing.
        unlisted: Mutex<BTreeSet<u64>>,
        version: Mutex<BTreeMap<u64, u64>>,
        log: Mutex<Vec<(u64, u64)>>, // (seq, uid)
        seq: AtomicU64,
        stat_calls: AtomicU64,
    }

    impl ChangeLake {
        fn new(n: u64) -> Self {
            Self::with_uids(0..n)
        }

        fn with_uids(uids: impl IntoIterator<Item = u64>) -> Self {
            ChangeLake {
                tables: uids
                    .into_iter()
                    .map(|i| TableRef {
                        table_uid: i,
                        database: "db".into(),
                        name: format!("t{i}").into(),
                        partitioned: i % 3 == 0,
                        compaction_enabled: true,
                        is_intermediate: false,
                    })
                    .collect(),
                unlisted: Mutex::new(BTreeSet::new()),
                version: Mutex::new(BTreeMap::new()),
                log: Mutex::new(Vec::new()),
                seq: AtomicU64::new(0),
                stat_calls: AtomicU64::new(0),
            }
        }

        fn write(&self, uid: u64) {
            let seq = self.seq.fetch_add(1, Ordering::SeqCst);
            self.log.lock().unwrap().push((seq, uid));
            *self.version.lock().unwrap().entry(uid).or_insert(0) += 1;
        }

        fn stats_for(&self, uid: u64) -> CandidateStats {
            let v = self.version.lock().unwrap().get(&uid).copied().unwrap_or(0);
            CandidateStats {
                file_count: 10 + uid + v * 100,
                small_file_count: 5 + v * 50,
                ..CandidateStats::default()
            }
        }

        fn calls(&self) -> u64 {
            self.stat_calls.load(Ordering::SeqCst)
        }

        fn table(&self, uid: u64) -> Option<&TableRef> {
            self.tables.iter().find(|t| t.table_uid == uid)
        }
    }

    impl LakeConnector for ChangeLake {
        fn list_tables(&self) -> Vec<TableRef> {
            let unlisted = self.unlisted.lock().unwrap();
            let listed = |t: &&TableRef| !unlisted.contains(&t.table_uid);
            self.tables.iter().filter(listed).cloned().collect()
        }
        fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
            self.stat_calls.fetch_add(1, Ordering::SeqCst);
            self.table(uid).map(|_| self.stats_for(uid))
        }
        fn partition_stats(&self, uid: u64) -> Vec<(String, CandidateStats)> {
            self.stat_calls.fetch_add(1, Ordering::SeqCst);
            if self.table(uid).is_some_and(|t| t.partitioned) {
                vec![
                    ("(p0)".to_string(), self.stats_for(uid)),
                    ("(p1)".to_string(), self.stats_for(uid)),
                ]
            } else {
                Vec::new()
            }
        }
        fn snapshot_stats(&self, uid: u64, _window_ms: u64) -> Option<CandidateStats> {
            self.stat_calls.fetch_add(1, Ordering::SeqCst);
            uid.is_multiple_of(2).then(|| self.stats_for(uid))
        }
        fn fleet_cursor(&self) -> Option<ChangeCursor> {
            Some(ChangeCursor(self.seq.load(Ordering::SeqCst)))
        }
        fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
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

    #[test]
    fn cold_observe_matches_per_table_pull() {
        let lake = ChangeLake::new(9);
        for scope in [
            ScopeStrategy::Table,
            ScopeStrategy::Partition,
            ScopeStrategy::Hybrid,
            ScopeStrategy::Snapshot { window_ms: 100 },
        ] {
            let observation = lake.observe(ObserveRequest::fresh(scope));
            let pulled = crate::scope::generate_candidates(&lake, scope);
            assert_eq!(observation.to_candidates(), pulled, "scope {scope:?}");
            assert_eq!(observation.reused_tables(), 0);
            assert_eq!(observation.fetched_tables(), 9);
        }
    }

    #[test]
    fn incremental_observe_refetches_only_dirty_tables() {
        let lake = ChangeLake::new(20);
        let mut observer = FleetObserver::new();
        observer.observe(&lake, ScopeStrategy::Table);
        lake.write(3);
        lake.write(7);
        let before = lake.calls();
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        assert_eq!(lake.calls() - before, 2, "only dirty tables re-fetched");
        assert_eq!(obs.reused_tables(), 18);
        assert_eq!(obs.fetched_tables(), 2);
        // The refreshed entries reflect the writes; reused ones don't.
        let cold = lake.observe(ObserveRequest::fresh(ScopeStrategy::Table));
        assert_eq!(obs.to_candidates(), cold.to_candidates());
    }

    #[test]
    fn force_dirty_overrides_a_quiet_changelog() {
        let lake = ChangeLake::new(5);
        let mut observer = FleetObserver::new();
        observer.observe(&lake, ScopeStrategy::Table);
        observer.mark_dirty(2);
        let before = lake.calls();
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        assert_eq!(lake.calls() - before, 1);
        assert_eq!(obs.fetched_tables(), 1);
        // Pending dirty marks are consumed by the observe.
        let before = lake.calls();
        observer.observe(&lake, ScopeStrategy::Table);
        assert_eq!(lake.calls() - before, 0);
    }

    #[test]
    fn scope_change_forces_a_full_fetch() {
        let lake = ChangeLake::new(6);
        let mut observer = FleetObserver::new();
        observer.observe(&lake, ScopeStrategy::Table);
        let obs = observer.observe(&lake, ScopeStrategy::Hybrid);
        assert_eq!(obs.reused_tables(), 0);
        assert_eq!(obs.fetched_tables(), 6);
    }

    /// Connector without changelog support: incremental requests degrade
    /// to full fetches (the compatibility contract).
    struct PlainLake(Vec<TableRef>);

    impl LakeConnector for PlainLake {
        fn list_tables(&self) -> Vec<TableRef> {
            self.0.clone()
        }
        fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
            Some(CandidateStats {
                file_count: uid,
                ..CandidateStats::default()
            })
        }
        fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
            Vec::new()
        }
    }

    #[test]
    fn connectors_without_changelog_always_observe_fully() {
        let lake = PlainLake(
            (0..4)
                .map(|i| TableRef {
                    table_uid: i,
                    database: "db".into(),
                    name: format!("t{i}").into(),
                    partitioned: false,
                    compaction_enabled: true,
                    is_intermediate: false,
                })
                .collect(),
        );
        let mut observer = FleetObserver::new();
        let first = observer.observe(&lake, ScopeStrategy::Table).clone();
        assert_eq!(first.cursor(), None);
        let second = observer.observe(&lake, ScopeStrategy::Table);
        assert_eq!(second.reused_tables(), 0);
        assert_eq!(second.fetched_tables(), 4);
        assert_eq!(&first, second);
    }

    #[test]
    fn new_and_dropped_tables_are_handled() {
        // Prior observed tables 0..=4; the lake now lists 0..=5: the new
        // table 5 is fetched, the other five are reused.
        let lake = ChangeLake::new(6);
        let prior = {
            let small = ChangeLake::new(5);
            small.observe(ObserveRequest::fresh(ScopeStrategy::Table))
        };
        // Splice a cursor onto the prior that the big lake accepts.
        let request = ObserveRequest::incremental(ScopeStrategy::Table, prior);
        let obs = lake.observe(request);
        assert_eq!(obs.table_count(), 6);
        assert_eq!(obs.reused_tables(), 5);
        assert_eq!(obs.fetched_tables(), 1);

        // One re-listed pass that drops table 1, creates table 6 and sees
        // a write to table 4: the four quiet survivors are reused at
        // their new positions — moved, so a partitioned entry keeps its
        // heap buffer — and the result equals a cold observe.
        let lake = ChangeLake::new(7);
        lake.unlisted.lock().unwrap().insert(6);
        let mut observer = FleetObserver::new();
        let parts_ptr =
            |obs: &FleetObservation, uid: u64| match obs.entry(obs.position_of_uid(uid).unwrap()) {
                TableObservation::Partitions(parts) => parts.as_ptr(),
                other => panic!("table {uid} is partitioned, got {other:?}"),
            };
        let before = parts_ptr(observer.observe(&lake, ScopeStrategy::Hybrid), 3);
        *lake.unlisted.lock().unwrap() = BTreeSet::from([1]);
        lake.write(4);
        let obs = observer.observe(&lake, ScopeStrategy::Hybrid);
        assert_eq!(obs.table_count(), 6);
        assert_eq!(obs.position_of_uid(3), Some(2), "table 3 moved up");
        assert_eq!(obs.fetched_tables(), 2, "the written and the created table");
        assert_eq!(obs.reused_tables(), 4);
        assert_eq!(parts_ptr(obs, 3), before, "reused entry moved, not cloned");
        let cold = lake.observe(ObserveRequest::fresh(ScopeStrategy::Hybrid));
        assert_eq!(*obs, cold);
    }

    /// `ChangeLake` whose listing repeats `tables[2]` at its end, under
    /// the given listing epoch.
    struct RepeatingLake(ChangeLake, Option<u64>);

    impl LakeConnector for RepeatingLake {
        fn list_tables(&self) -> Vec<TableRef> {
            let mut listed = self.0.list_tables();
            listed.push(self.0.tables[2].clone());
            listed
        }
        fn listing_epoch(&self) -> Option<u64> {
            self.1
        }
        fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
            self.0.table_stats(uid)
        }
        fn partition_stats(&self, uid: u64) -> Vec<(String, CandidateStats)> {
            self.0.partition_stats(uid)
        }
        fn fleet_cursor(&self) -> Option<ChangeCursor> {
            self.0.fleet_cursor()
        }
        fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
            self.0.changes_since(cursor)
        }
    }

    /// A re-read listing that repeats a uid hands the prior entry to the
    /// first listing of it; the repeat is fetched, as a cold observe does.
    #[test]
    fn a_relisting_that_repeats_a_uid_matches_cold() {
        let lake = RepeatingLake(ChangeLake::new(6), None);
        let mut observer = FleetObserver::new();
        observer.observe(&lake.0, ScopeStrategy::Hybrid);
        lake.0.write(4);
        let obs = observer.observe(&lake, ScopeStrategy::Hybrid);
        assert_eq!(obs.fetched_tables(), 2, "the written table and the repeat");
        assert!(obs.is_fresh(6));
        let cold = lake.observe(ObserveRequest::fresh(ScopeStrategy::Hybrid));
        assert_eq!(*obs, cold);
    }

    /// Under a shared listing that lists a uid twice, a write to it — by
    /// the changelog or by a mark the changelog missed — refreshes both
    /// positions, and the backlog counts the uid once.
    #[test]
    fn a_written_uid_listed_twice_under_a_shared_listing_matches_cold() {
        for by_mark in [false, true] {
            let lake = RepeatingLake(ChangeLake::new(6), Some(0));
            let mut observer = FleetObserver::new();
            let first = observer.observe(&lake, ScopeStrategy::Table).clone();
            if by_mark {
                // A write the changelog never saw.
                *lake.0.version.lock().unwrap().entry(2).or_insert(0) += 1;
                observer.mark_dirty(2);
                observer.mark_dirty(2);
                assert_eq!(observer.dirty_backlog(), 1, "one uid");
                assert_eq!(observer.pending_dirty_uids(), vec![2]);
            } else {
                lake.0.write(2);
            }
            let obs = observer.observe(&lake, ScopeStrategy::Table);
            assert!(Arc::ptr_eq(&first.tables, &obs.tables), "shared listing");
            assert_eq!(obs.fetched_tables(), 2, "by mark {by_mark}");
            assert!(obs.is_fresh(2) && obs.is_fresh(6), "by mark {by_mark}");
            let cold = lake.observe(ObserveRequest::fresh(ScopeStrategy::Table));
            assert_eq!(*obs, cold, "by mark {by_mark}");
        }
    }

    /// Stats faults on a re-read listing in which tables moved: carry,
    /// retirement and quarantine follow the table, not its position.
    #[test]
    fn stats_faults_on_a_moved_listing() {
        let scope = ScopeStrategy::Hybrid;
        let lake = FaultyLake::new(8);
        lake.inner.unlisted.lock().unwrap().insert(7);
        let mut observer = FleetObserver::new();
        observer.observe(&lake, scope);
        // Table 5 faults on a write and is quarantined, carried.
        lake.inner.write(5);
        lake.fault_stats(5, [ObserveFault::transient("store hiccup")]);
        let prior = observer.observe(&lake, scope).clone();
        assert!(prior.degradation().quarantine[&5].carried);
        // Tables 1 and 5 leave the listing and 7 joins it, so table 3
        // moves from position 3 to 2. Its write faults, and so does the
        // first fetch of table 7.
        *lake.inner.unlisted.lock().unwrap() = BTreeSet::from([1, 5]);
        lake.inner.write(3);
        lake.fault_stats(3, [ObserveFault::transient("store hiccup")]);
        lake.fault_stats(7, [ObserveFault::transient("store hiccup")]);
        let obs = observer.observe(&lake, scope);
        let moved = obs.position_of_uid(3).unwrap();
        assert_eq!(moved, 2);
        assert_eq!(
            obs.entry(moved),
            prior.entry(3),
            "carried at its new position"
        );
        assert!(!obs.is_fresh(moved));
        assert!(obs.degradation().quarantine[&3].carried);
        let new = obs.position_of_uid(7).unwrap();
        assert_eq!(*obs.entry(new), TableObservation::Missing);
        assert!(obs.is_fresh(new));
        assert!(
            !obs.degradation().quarantine[&7].carried,
            "nothing to carry"
        );
        assert!(
            !obs.degradation().quarantine.contains_key(&5),
            "a dropped table loses its record"
        );
        // Healed: once the backoffs expire, the chain equals a cold observe.
        for _ in 0..QUARANTINE_BACKOFF_CAP_PASSES {
            observer.observe(&lake, scope);
        }
        let obs = observer.last().unwrap();
        assert!(obs.degradation().quarantine.is_empty());
        assert_eq!(*obs, lake.observe(ObserveRequest::fresh(scope)));
    }

    /// The keyed uid hasher answers exactly as a linear scan, extreme and
    /// sparse uids included.
    #[test]
    fn position_of_uid_agrees_with_a_linear_scan() {
        let uids: Vec<u64> = [0, 1 << 63, u64::MAX, u64::MAX - 1, 1]
            .into_iter()
            .chain((1..200).map(|i| i * 1_000_003))
            .chain((1..40).map(|i| 1u64 << i))
            .collect();
        let lake = PlainLake(
            uids.iter()
                .map(|uid| TableRef {
                    table_uid: *uid,
                    database: "db".into(),
                    name: format!("t{uid}").into(),
                    partitioned: false,
                    compaction_enabled: true,
                    is_intermediate: false,
                })
                .collect(),
        );
        let obs = lake.observe(ObserveRequest::fresh(ScopeStrategy::Table));
        let absent = [3, (1 << 63) + 1, u64::MAX - 2, 1_000_004, 1 << 41];
        for uid in uids.iter().copied().chain(absent) {
            let scan = obs.tables().iter().position(|t| t.table_uid == uid);
            assert_eq!(obs.position_of_uid(uid), scan, "uid {uid}");
        }
    }

    /// Both uid-index kinds place marks alike: the backlog counts
    /// distinct uids, the snapshot list is ascending, and a mark stands
    /// for every position its uid is listed at — repeats, uids in a gap
    /// of a dense span, and uids the index cannot place included.
    #[test]
    fn dirty_marks_place_alike_over_dense_and_hashed_indexes() {
        let dense = [10u64, 12, 11, 15, 12, 14];
        let sparse = [10u64, 1 << 40, 11, 15, 1 << 40, 3];
        let marks = [12u64, 13, 1 << 40, 99, 12, 3, 15, 1 << 41];
        for listing in [dense, sparse] {
            let lake = PlainLake(
                listing
                    .iter()
                    .map(|uid| TableRef {
                        table_uid: *uid,
                        database: "db".into(),
                        name: format!("t{uid}").into(),
                        partitioned: false,
                        compaction_enabled: true,
                        is_intermediate: false,
                    })
                    .collect(),
            );
            let mut observer = FleetObserver::new();
            let obs = observer.observe(&lake, ScopeStrategy::Table);
            let is_dense = matches!(obs.uid_index().slots, Slots::Dense { .. });
            assert_eq!(is_dense, listing == dense, "{listing:?}");
            for uid in listing.iter().chain(&marks) {
                let scan = listing.iter().rposition(|u| u == uid);
                assert_eq!(obs.position_of_uid(*uid), scan, "uid {uid}");
            }
            for uid in marks {
                observer.mark_dirty(uid);
            }
            let distinct: Vec<u64> = BTreeSet::from(marks).into_iter().collect();
            assert_eq!(observer.dirty_backlog(), distinct.len(), "{listing:?}");
            assert_eq!(observer.pending_dirty_uids(), distinct, "{listing:?}");
            let marked: Vec<u32> = (0..listing.len() as u32)
                .filter(|pos| marks.contains(&listing[*pos as usize]))
                .collect();
            let planned = observer.pending_dirty.positions();
            assert_eq!(planned.ones().collect::<Vec<_>>(), marked, "{listing:?}");
        }
    }

    /// `ChangeLake` behind a connector that may list it backwards, and
    /// whose `observe` override may hand [`pull_observe`] a prior of its own
    /// in place of the request's. It records the marks each request
    /// carried.
    struct Wrapped<'a> {
        lake: &'a ChangeLake,
        backwards: bool,
        prior: Option<FleetObservation>,
        marks: Mutex<Vec<Vec<u64>>>,
    }

    impl<'a> Wrapped<'a> {
        fn new(lake: &'a ChangeLake, backwards: bool, prior: Option<FleetObservation>) -> Self {
            Wrapped {
                lake,
                backwards,
                prior,
                marks: Mutex::new(Vec::new()),
            }
        }
    }

    impl LakeConnector for Wrapped<'_> {
        fn list_tables(&self) -> Vec<TableRef> {
            let mut listed = self.lake.list_tables();
            if self.backwards {
                listed.reverse();
            }
            listed
        }
        fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
            self.lake.table_stats(uid)
        }
        fn partition_stats(&self, uid: u64) -> Vec<(String, CandidateStats)> {
            self.lake.partition_stats(uid)
        }
        fn fleet_cursor(&self) -> Option<ChangeCursor> {
            self.lake.fleet_cursor()
        }
        fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
            self.lake.changes_since(cursor)
        }
        fn observe(&self, mut request: ObserveRequest) -> FleetObservation {
            self.marks.lock().unwrap().push(request.force_dirty.uids());
            if let Some(prior) = &self.prior {
                request.prior = Some(prior.clone());
            }
            pull_observe(self, request)
        }
    }

    /// Marks made against the observer's prior hold when an override
    /// hands `pull_observe` another prior: over sparse uids a slot is a
    /// listing position, and the other prior lists the tables in
    /// reverse, so the marks must be placed again by uid. The override
    /// reads the marks it was handed.
    #[test]
    fn marks_follow_the_prior_an_override_passes_on() {
        let lake = ChangeLake::with_uids([7, 1 << 40, 3, 1 << 33, 12]);
        let mut observer = FleetObserver::new();
        observer.observe(&lake, ScopeStrategy::Table);
        let backwards =
            Wrapped::new(&lake, true, None).observe(ObserveRequest::fresh(ScopeStrategy::Table));
        assert_eq!(backwards.position_of_uid(7), Some(4));
        // Writes the changelog never saw, to the first and fourth listed.
        for uid in [7, 1 << 33] {
            *lake.version.lock().unwrap().entry(uid).or_insert(0) += 1;
            observer.mark_dirty(uid);
        }
        let swapping = Wrapped::new(&lake, false, Some(backwards));
        let obs = observer.observe(&swapping, ScopeStrategy::Table);
        assert_eq!(*swapping.marks.lock().unwrap(), vec![vec![7, 1 << 33]]);
        assert_eq!(obs.fetched_tables(), 2);
        assert!(obs.is_fresh(0) && obs.is_fresh(3));
        let cold = lake.observe(ObserveRequest::fresh(ScopeStrategy::Table));
        assert_eq!(*obs, cold);
    }

    /// Observations are values: a pass over a prior that someone else
    /// still holds a clone of copies the entries before patching them.
    #[test]
    fn a_pass_over_a_prior_held_elsewhere_leaves_the_clone_as_it_was() {
        let lake = ChangeLake::new(10);
        let prior = lake.observe(ObserveRequest::fresh(ScopeStrategy::Table));
        let held = prior.clone();
        let before = held.to_candidates();
        lake.write(4);
        let obs = lake.observe(ObserveRequest::incremental(ScopeStrategy::Table, prior));
        assert_eq!(obs.fetched_tables(), 1);
        assert!(!obs.entries_shared_with(&held));
        assert_eq!(held.to_candidates(), before, "the clone kept its values");
        assert!((0..10).all(|i| held.is_fresh(i)), "and its freshness");
        let cold = lake.observe(ObserveRequest::fresh(ScopeStrategy::Table));
        assert_eq!(obs, cold);
    }

    /// The observer holds the only handle on its observation, so a dirty
    /// pass patches the entry vector where it is: an unfetched entry
    /// stays at its address. `ChangeLake` reports no listing epoch, so
    /// this is also a re-read listing in which no table moved.
    #[test]
    fn a_dirty_pass_through_the_observer_patches_in_place() {
        let lake = ChangeLake::new(10);
        let mut observer = FleetObserver::new();
        let before: *const TableObservation =
            observer.observe(&lake, ScopeStrategy::Table).entry(2);
        lake.write(7);
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        assert_eq!(obs.fetched_tables(), 1);
        assert!(std::ptr::eq(obs.entry(2), before), "entry 2 did not move");
        let cold = lake.observe(ObserveRequest::fresh(ScopeStrategy::Table));
        assert_eq!(*obs, cold);
    }

    #[test]
    fn fresh_entries_are_exactly_the_dirty_set() {
        let lake = ChangeLake::new(10);
        let mut observer = FleetObserver::new();
        let cold = observer.observe(&lake, ScopeStrategy::Table);
        assert!(
            (0..10).all(|i| cold.is_fresh(i)),
            "cold is fresh everywhere"
        );
        lake.write(4);
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        for i in 0..10 {
            assert_eq!(obs.is_fresh(i), i == 4, "entry {i}");
        }
        assert_eq!(obs.prior_cursor(), Some(ChangeCursor(0)));
        // A force-dirtied table absent from the changelog is fresh too —
        // the invariant downstream caches key their invalidation on.
        observer.mark_dirty(7);
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        for i in 0..10 {
            assert_eq!(obs.is_fresh(i), i == 7, "entry {i}");
        }
        // A quiet incremental pass fetches nothing: no fresh entries.
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        assert!((0..10).all(|i| !obs.is_fresh(i)));
    }

    #[test]
    fn unchanged_listing_epoch_shares_the_table_vector() {
        // A constant listing epoch: incremental observes share the prior
        // observation's table vector instead of re-materializing it.
        let lake = FaultyLake {
            epoch: Some(42),
            ..FaultyLake::new(12)
        };
        let mut observer = FleetObserver::new();
        let first = observer.observe(&lake, ScopeStrategy::Table).clone();
        assert_eq!(first.listing_epoch(), Some(42));
        lake.inner.write(3);
        let second = observer.observe(&lake, ScopeStrategy::Table);
        assert!(
            Arc::ptr_eq(&first.tables_shared(), &second.tables_shared()),
            "same epoch ⇒ shared listing"
        );
        // Shared listing must still re-fetch the dirty set and stay
        // identical to an un-shared cold observe.
        assert_eq!(second.fetched_tables(), 1);
        let cold = lake.observe(ObserveRequest::fresh(ScopeStrategy::Table));
        assert_eq!(second.to_candidates(), cold.to_candidates());
    }

    #[test]
    fn sliding_window_passes_stay_identical_to_cold() {
        let lake = ChangeLake::new(200);
        let mut observer = FleetObserver::new();
        observer.observe(&lake, ScopeStrategy::Table);
        // Many incremental cycles, each dirtying a sliding window, so
        // every entry is overwritten several times over the run.
        for round in 0..120u64 {
            for k in 0..5 {
                lake.write((round * 5 + k) % 200);
            }
            let obs = observer.observe(&lake, ScopeStrategy::Table);
            assert_eq!(obs.fetched_tables(), 5, "round {round}");
            // Patching must not disturb values: spot-check equality
            // with a cold observe every few rounds.
            if round % 40 == 0 {
                let cold = lake.observe(ObserveRequest::fresh(ScopeStrategy::Table));
                assert_eq!(obs.to_candidates(), cold.to_candidates(), "round {round}");
            }
        }
    }

    #[test]
    fn interner_shares_allocations() {
        let mut interner = NameInterner::new();
        let a = interner.get_or_intern("db1");
        let b = interner.get_or_intern("db1");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(interner.len(), 1);
        let c = interner.get_or_intern("db2");
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(!interner.is_empty());
    }

    /// `ChangeLake` wrapper with scripted fault queues on the `try_*`
    /// surface: each fallible read pops its queue (empty = healthy).
    struct FaultyLake {
        inner: ChangeLake,
        epoch: Option<u64>,
        listing_faults: Mutex<Vec<ObserveFault>>,
        changelog_faults: Mutex<Vec<ObserveFault>>,
        changelog_overflows: AtomicU64,
        stats_faults: Mutex<BTreeMap<u64, Vec<ObserveFault>>>,
    }

    impl FaultyLake {
        fn new(n: u64) -> Self {
            FaultyLake {
                inner: ChangeLake::new(n),
                epoch: None,
                listing_faults: Mutex::new(Vec::new()),
                changelog_faults: Mutex::new(Vec::new()),
                changelog_overflows: AtomicU64::new(0),
                stats_faults: Mutex::new(BTreeMap::new()),
            }
        }

        fn fault_listing(&self, faults: impl IntoIterator<Item = ObserveFault>) {
            self.listing_faults.lock().unwrap().extend(faults);
        }

        fn fault_changelog(&self, faults: impl IntoIterator<Item = ObserveFault>) {
            self.changelog_faults.lock().unwrap().extend(faults);
        }

        fn fault_stats(&self, uid: u64, faults: impl IntoIterator<Item = ObserveFault>) {
            self.stats_faults
                .lock()
                .unwrap()
                .entry(uid)
                .or_default()
                .extend(faults);
        }

        fn pop(queue: &Mutex<Vec<ObserveFault>>) -> Option<ObserveFault> {
            let mut q = queue.lock().unwrap();
            if q.is_empty() {
                None
            } else {
                Some(q.remove(0))
            }
        }

        fn pop_stats(&self, uid: u64) -> Option<ObserveFault> {
            let mut map = self.stats_faults.lock().unwrap();
            let q = map.get_mut(&uid)?;
            if q.is_empty() {
                None
            } else {
                Some(q.remove(0))
            }
        }
    }

    impl LakeConnector for FaultyLake {
        fn list_tables(&self) -> Vec<TableRef> {
            self.inner.list_tables()
        }
        fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
            self.inner.table_stats(uid)
        }
        fn partition_stats(&self, uid: u64) -> Vec<(String, CandidateStats)> {
            self.inner.partition_stats(uid)
        }
        fn snapshot_stats(&self, uid: u64, window_ms: u64) -> Option<CandidateStats> {
            self.inner.snapshot_stats(uid, window_ms)
        }
        fn fleet_cursor(&self) -> Option<ChangeCursor> {
            self.inner.fleet_cursor()
        }
        fn listing_epoch(&self) -> Option<u64> {
            self.epoch
        }
        fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
            self.inner.changes_since(cursor)
        }
        fn try_list_tables(&self) -> Result<Vec<TableRef>, ObserveFault> {
            match Self::pop(&self.listing_faults) {
                Some(fault) => Err(fault),
                None => Ok(self.inner.list_tables()),
            }
        }
        fn try_table_stats(&self, uid: u64) -> Result<Option<CandidateStats>, ObserveFault> {
            match self.pop_stats(uid) {
                Some(fault) => Err(fault),
                None => Ok(self.inner.table_stats(uid)),
            }
        }
        fn try_partition_stats(
            &self,
            uid: u64,
        ) -> Result<Vec<(String, CandidateStats)>, ObserveFault> {
            match self.pop_stats(uid) {
                Some(fault) => Err(fault),
                None => Ok(self.inner.partition_stats(uid)),
            }
        }
        fn try_snapshot_stats(
            &self,
            uid: u64,
            window_ms: u64,
        ) -> Result<Option<CandidateStats>, ObserveFault> {
            match self.pop_stats(uid) {
                Some(fault) => Err(fault),
                None => Ok(self.inner.snapshot_stats(uid, window_ms)),
            }
        }
        fn try_changes_since(
            &self,
            cursor: ChangeCursor,
        ) -> Result<Option<Vec<u64>>, ObserveFault> {
            if self
                .changelog_overflows
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                return Ok(None);
            }
            match Self::pop(&self.changelog_faults) {
                Some(fault) => Err(fault),
                None => Ok(self.inner.changes_since(cursor)),
            }
        }
    }

    #[test]
    fn transient_listing_fault_is_retried_within_the_pass() {
        let lake = FaultyLake::new(6);
        lake.fault_listing([
            ObserveFault::transient("catalog timeout"),
            ObserveFault::transient("catalog timeout"),
        ]);
        let obs = lake.observe(ObserveRequest::fresh(ScopeStrategy::Table));
        assert_eq!(obs.table_count(), 6, "retries recovered the listing");
        assert_eq!(obs.degradation().listing_retries, 2);
        assert!(!obs.degradation().stalled);
        assert_eq!(
            obs.to_candidates(),
            lake.inner
                .observe(ObserveRequest::fresh(ScopeStrategy::Table))
                .to_candidates()
        );
    }

    #[test]
    fn exhausted_listing_fault_carries_the_prior_listing() {
        let lake = FaultyLake::new(5);
        let mut observer = FleetObserver::new();
        observer.observe(&lake, ScopeStrategy::Table);
        // Permanent fault: no retry, prior listing reused.
        lake.fault_listing([ObserveFault::permanent("catalog gone")]);
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        assert_eq!(obs.table_count(), 5);
        assert_eq!(obs.degradation().listing_stale_passes, 1);
        assert_eq!(obs.degradation().listing_retries, 0);
        // Healed: staleness clears.
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        assert_eq!(obs.degradation().listing_stale_passes, 0);
        assert!(!obs.degradation().is_degraded());
    }

    #[test]
    fn listing_fault_with_no_prior_stalls_into_a_husk() {
        let lake = FaultyLake::new(4);
        lake.fault_listing([ObserveFault::permanent("catalog gone")]);
        let obs = lake.observe(ObserveRequest::fresh(ScopeStrategy::Table));
        assert_eq!(obs.table_count(), 0);
        assert!(obs.degradation().stalled);
        assert!(obs.degradation().is_degraded());
        // The husk is a valid prior: once the listing heals, the next
        // pass observes the fleet fully.
        let healed = lake.observe(ObserveRequest::incremental(ScopeStrategy::Table, obs));
        assert_eq!(healed.table_count(), 4);
        assert!(!healed.degradation().stalled);
    }

    #[test]
    fn changelog_fault_falls_back_to_a_full_observe() {
        let lake = FaultyLake::new(8);
        let mut observer = FleetObserver::new();
        observer.observe(&lake, ScopeStrategy::Table);
        lake.inner.write(3);
        lake.fault_changelog(vec![ObserveFault::permanent("stream down")]);
        let before = lake.inner.calls();
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        assert_eq!(
            obs.degradation().fallback,
            Some(FallbackCause::ChangelogFault)
        );
        assert_eq!(lake.inner.calls() - before, 8, "full fetch");
        assert_eq!(obs.fetched_tables(), 8);
        // The fallback resynchronized the chain: the next pass is
        // incremental again.
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        assert!(!obs.degradation().is_degraded());
        assert_eq!(obs.fetched_tables(), 0);
    }

    #[test]
    fn changelog_overflow_records_its_own_cause() {
        let lake = FaultyLake::new(7);
        let mut observer = FleetObserver::new();
        observer.observe(&lake, ScopeStrategy::Table);
        lake.changelog_overflows.store(1, Ordering::SeqCst);
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        assert_eq!(
            obs.degradation().fallback,
            Some(FallbackCause::ChangelogOverflow)
        );
        assert_eq!(obs.fetched_tables(), 7);
        assert_eq!(
            obs.degradation().changelog_retries,
            0,
            "no retry: definitive"
        );
    }

    #[test]
    fn stats_fault_carries_the_prior_entry_and_quarantines() {
        let lake = FaultyLake::new(10);
        let mut observer = FleetObserver::new();
        let cold = observer
            .observe(&lake, ScopeStrategy::Table)
            .to_candidates();
        lake.inner.write(4);
        lake.fault_stats(4, [ObserveFault::transient("store hiccup")]);
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        // The faulted table's entry is the stale prior value.
        assert_eq!(obs.to_candidates(), cold, "carried entry keeps prior stats");
        assert_eq!(obs.degradation().carried_entries(), 1);
        let q = obs.degradation().quarantine.get(&4).copied().unwrap();
        assert_eq!(q.attempts, 1);
        assert!(q.carried);
        assert_eq!(q.release_pass, obs.degradation().pass + 1);
        // Next pass: backoff expired, the table is re-force-dirtied and
        // heals — values converge on the written state.
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        assert!(obs.degradation().quarantine.is_empty());
        assert!(!obs.degradation().is_degraded());
        let fresh = lake
            .inner
            .observe(ObserveRequest::fresh(ScopeStrategy::Table));
        assert_eq!(obs.to_candidates(), fresh.to_candidates());
    }

    /// A table carried stale at a snapshot is re-fetched after a restore
    /// on the pass it was due, exactly as it is without the crash: pass
    /// by pass the restored observer reads what the never-crashed one
    /// does, and both end on the written stats.
    #[test]
    fn a_carried_entry_keeps_its_quarantine_across_a_restore() {
        let lake = FaultyLake::new(10);
        let mut kept = FleetObserver::new();
        kept.observe(&lake, ScopeStrategy::Table);
        lake.inner.write(4);
        lake.fault_stats(4, [ObserveFault::transient("store hiccup")]);
        let carried = kept.observe(&lake, ScopeStrategy::Table);
        assert_eq!(carried.degradation().carried_entries(), 1);

        let mut enc = lakesim_storage::Encoder::new();
        carried.snapshot_write(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = lakesim_storage::Decoder::new(&bytes);
        let snapshot = FleetObservation::snapshot_restore(&mut dec, None).unwrap();
        let mut restored = FleetObserver::new();
        restored.restore_prior(snapshot, Vec::new());

        let written = lake.inner.stats_for(4).file_count;
        let of_table_4 = |obs: &FleetObservation| match obs.entry(4) {
            TableObservation::Table(stats) => stats.file_count,
            other => panic!("table 4 observed as {other:?}"),
        };
        for pass in 1..=3 {
            let kept = kept.observe(&lake, ScopeStrategy::Table);
            let restored = restored.observe(&lake, ScopeStrategy::Table);
            assert_eq!(
                restored.to_candidates(),
                kept.to_candidates(),
                "pass {pass}"
            );
            assert_eq!(of_table_4(restored), written, "pass {pass}");
        }
    }

    #[test]
    fn carry_budget_exhaustion_retires_the_entry_to_missing() {
        let lake = FaultyLake::new(3);
        let mut observer = FleetObserver::new();
        observer.observe(&lake, ScopeStrategy::Table);
        // One faulted re-fetch more than the carry budget: each fault
        // within the budget carries, the next retires. Re-fetches wait
        // out the quarantine backoff; the quiet passes in between keep
        // the carried record.
        let faults = MAX_CARRY_ATTEMPTS as usize + 1;
        lake.fault_stats(1, vec![ObserveFault::transient("flaky"); faults]);
        lake.inner.write(1);
        let attempts = |obs: &FleetObservation| obs.degradation().quarantine[&1].attempts;
        for _ in 0..faults as u64 * QUARANTINE_BACKOFF_CAP_PASSES {
            let obs = observer.observe(&lake, ScopeStrategy::Table);
            if attempts(obs) > MAX_CARRY_ATTEMPTS {
                break;
            }
            assert_eq!(obs.degradation().carried_entries(), 1);
        }
        let obs = observer.last().unwrap();
        assert_eq!(obs.degradation().carried_entries(), 0);
        assert_eq!(obs.degradation().retired_entries(), 1);
        let pos = obs.position_of_uid(1).unwrap();
        assert_eq!(*obs.entry(pos), TableObservation::Missing);
        assert!(obs
            .degradation()
            .reasons()
            .contains(&DegradeReason::Retired));
        // Healing re-fetch (once the last backoff expires) restores the
        // table.
        for _ in 0..QUARANTINE_BACKOFF_CAP_PASSES {
            observer.observe(&lake, ScopeStrategy::Table);
        }
        let obs = observer.last().unwrap();
        assert!(obs.degradation().quarantine.is_empty());
        assert_ne!(*obs.entry(pos), TableObservation::Missing);
    }

    /// One rule for carried entries on every pass: a fault absorbed by
    /// carrying the prior entry reads as reused, also when the pass is a
    /// changelog-fallback full observe that fetched everything else.
    #[test]
    fn carried_entry_on_a_fallback_pass_reads_as_reused() {
        let n = 8;
        let lake = FaultyLake::new(n);
        let mut observer = FleetObserver::new();
        let prior = observer.observe(&lake, ScopeStrategy::Table).clone();
        lake.inner.write(3);
        lake.inner.write(5);
        lake.fault_changelog([ObserveFault::permanent("stream down")]);
        lake.fault_stats(5, [ObserveFault::transient("store hiccup")]);
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        assert_eq!(
            obs.degradation().fallback,
            Some(FallbackCause::ChangelogFault)
        );
        assert_eq!(obs.fetched_tables(), n as usize - 1);
        assert_eq!(obs.reused_tables(), 1);
        let carried = obs.position_of_uid(5).unwrap();
        for i in 0..n as usize {
            assert_eq!(obs.is_fresh(i), i != carried, "entry {i}");
        }
        assert_eq!(
            obs.prior_cursor(),
            None,
            "a full observe is not incremental"
        );
        assert_eq!(obs.degradation().carried_entries(), 1);
        assert_eq!(obs.to_candidates()[carried], prior.to_candidates()[carried]);
        // Healed next pass: the quarantine re-fetch lands the write.
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        assert!(!obs.degradation().is_degraded());
        assert!(obs.is_fresh(carried));
        let cold = lake.observe(ObserveRequest::fresh(ScopeStrategy::Table));
        assert_eq!(obs.to_candidates(), cold.to_candidates());
    }

    #[test]
    fn vanish_is_not_a_fault() {
        // A table that vanishes (stats read answers `Ok(None)`) yields
        // `Missing` with no quarantine entry — state signal, not fault.
        let lake = FaultyLake::new(3);
        let mut observer = FleetObserver::new();
        observer.observe(&lake, ScopeStrategy::Table);
        observer.mark_dirty(99); // never listed
        let obs = observer.observe(&lake, ScopeStrategy::Table);
        assert!(obs.degradation().quarantine.is_empty());
        assert!(!obs.degradation().is_degraded());
    }
}
