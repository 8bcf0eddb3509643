//! The decide state: one retained store of what filter, orient and rank
//! produced, indexed by candidate slot and patched in place each cycle.
//!
//! A *slot* is a candidate's position in listing order: table after
//! table, each table's candidates (the table itself, or its partitions)
//! in observation order. The state holds per slot the filter verdict (or
//! its shared `Arc<str>` drop reason), the trait values as a
//! [`TraitMatrix`]'s own columns, and the score. Beside them sit the bit
//! patterns of the normalization bounds the scores were computed under,
//! the retained exact-order prefix of the last selection, the slots the
//! job ledger suppressed last cycle, and bitmaps and bounds derived from
//! those.
//!
//! # Keys
//!
//! A cycle reuses the retained state only when all of these hold:
//!
//! * **Epoch** — the pipeline's configuration epoch is unchanged. It
//!   bumps on filter, trait and scheduler registration, on every
//!   [`config_mut`](crate::pipeline::AutoComp::config_mut) access and on
//!   [`invalidate_cycle_cache`](crate::pipeline::AutoComp::invalidate_cycle_cache).
//!   Feedback calibration does not bump it: it scales act-phase
//!   predictions, never verdicts, trait values or scores.
//! * **Scope and width** — the same scope strategy and trait-column
//!   count.
//! * **Chain** — the observation was derived, through the changelog,
//!   from the very observation the state was last patched against: its
//!   prior's serial is the state's (see [`crate::observe`]'s chain).
//!   Serials are process-unique, so a state never splices into another
//!   observer's chain, whatever cursors the two share.
//! * **Clock** — a chain with a
//!   [time-sensitive](crate::filter::CandidateFilter::time_sensitive)
//!   filter reuses the state only at the timestamp it was filled at.
//! * **Listing** — the listing `Arc` the slots were laid out against
//!   decides between the two patch arms below.
//!
//! # The patch set
//!
//! A cycle rewrites the verdicts and trait rows of *patched* tables
//! only; every other slot keeps its verdict, trait row and score.
//!
//! * Under the same listing `Arc` every table sits at its own position
//!   with literally the same descriptor: the patched tables are the
//!   observation's fresh ones (changelog hits, force-dirtied and settled
//!   tables, new fetches), rewritten in place.
//! * Under another listing, or when a fresh table's candidate count
//!   changed, one remap moves the slots of every quiet table whose uid is
//!   still listed with an equal descriptor and candidate count; every
//!   other table is patched. Filter verdicts read descriptor fields and
//!   descriptor edits need not reach the changelog, so a changed
//!   descriptor counts as fresh.
//!
//! The *ranked set* is a retained bitmap of the kept, NaN-free slots of
//! tables without a live ledger job. Orient patches it for the patched
//! slots and the mask for the ledger's enter/leave diff, so neither walks
//! the fleet; the report's lazy tail shares it like the score column,
//! copied on write only while a report holds it. `dropped` lists filter
//! drops, then ledger hits, then NaN rows (one shared reason per trait),
//! each in slot order and read off a bitmap of the slots the filter or a
//! NaN excluded; a live NaN row reports the ledger's reason only. A
//! ranked slot re-scores when its table was patched or left the ledger.
//!
//! Each trait column's min and max over the ranked set, with the number
//! of ranked slots holding each, are updated wherever a ranked value or
//! membership changes, a patched row counted in before its old row is
//! counted out. One rule rescans a column, when next read: an extreme
//! lost its last holder (the bound moved, so every slot re-scores
//! anyway). Where zeros of both signs sit at an end, the fold takes
//! `-0.0` as the min and `+0.0` as the max whatever their order, and an
//! end counts the holders of the zero it takes, so the bounds are
//! bit-equal to a fold over the ranked slots.
//!
//! # Selection
//!
//! The retained prefix is the last cycle's exact rank order, longer than
//! the report head. A slot outside it ranked below all of its members
//! last cycle; if its score did not change it still does. So while the
//! policy shape and every bound are bit-equal, merging the prefix
//! members that kept their scores with the re-scored slots yields the
//! exact top-j for every j up to the number of such survivors. Re-scored
//! values are bit-identical to a fleet-wide pass: the same inputs
//! accumulate in the same order.
//!
//! # The fleet-wide path
//!
//! The fleet-wide path is the same patch applied to every slot, followed
//! by [`crate::rank`]'s partial selection over every ranked slot. It
//! runs:
//!
//! * with no usable state: the first cycle, one after an explicit
//!   invalidation, a full observe (a fresh observer's, a cursor-less
//!   connector's, a changelog fallback), a state another observer's
//!   cycle left, a cold restore;
//! * on any key mismatch above;
//! * for ranking alone: when a normalization bound moved (min–max
//!   normalization is fleet-global, so every score moves with it), for a
//!   budget-driven policy (its greedy walk is global), or when fewer
//!   prefix members survived than the report head needs.
//!
//! A remap or a restore derives the bitmaps in one walk; a patch of a
//! quarter of the tables or more re-derives the ranked set from the
//! excluded bitmap. Either leaves every bound stale.
//!
//! A snapshot persists the state only while it is live for the
//! snapshotted observation: same epoch, last patched against exactly
//! that observation, which carries a change cursor (a restore needs
//! one). A restore lays the slots out from the restored observation,
//! and the state is patched against it.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use lakesim_storage::{CodecError, Decoder, Encoder};

use crate::candidate::{Candidate, CandidateId, CandidateView, ScopeKind, TableRef};
use crate::filter::{evaluate_chain, CandidateFilter};
use crate::matrix::{TraitId, TraitMatrix};
use crate::observe::{Bits, ChangeCursor, FleetObservation, TableObservation, UidMap};
use crate::rank::{
    rank_slots, Bounds, DecisionNote, RankCycleStats, RankSource, RankedEntries, RankingPolicy,
    Selection, Slots,
};
use crate::scope::ScopeStrategy;
use crate::stats::CandidateStats;
use crate::traits::TraitComputer;
use crate::Result;

/// Patch effectiveness of the most recent cycle (see
/// [`AutoComp::cycle_cache_stats`](crate::pipeline::AutoComp::cycle_cache_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleCacheStats {
    /// Tables whose slots were kept from the retained state (no filter or
    /// trait computation ran for them).
    pub spliced_tables: usize,
    /// Tables patched this cycle: fresh, re-described or new ones, or the
    /// whole fleet on the fleet-wide path.
    pub recomputed_tables: usize,
}

/// What a state was patched under (see the module docs' keys).
#[derive(Debug, Clone)]
pub(crate) struct Keys {
    pub(crate) epoch: u64,
    pub(crate) scope: ScopeStrategy,
    pub(crate) cursor: Option<ChangeCursor>,
    pub(crate) now_ms: u64,
    pub(crate) tables: Arc<Vec<TableRef>>,
}

/// Where each candidate's slot is: table ranges and their inverse.
#[derive(Debug)]
pub(crate) struct Layout {
    /// Per listing position: the table's first slot (`len = tables + 1`).
    start: Vec<u32>,
    /// Per slot: the listing position of its table.
    table_of: Vec<u32>,
    /// Per slot: its table's uid, shared with the reports' lazy tails.
    uids: Arc<[u64]>,
}

impl Layout {
    /// The slots of `observation`, calling `each(table, ci)` on every
    /// candidate in slot order on the way.
    fn of(observation: &FleetObservation, mut each: impl FnMut(usize, usize)) -> Self {
        let mut start = Vec::with_capacity(observation.table_count() + 1);
        let mut table_of = Vec::with_capacity(observation.table_count());
        let mut uids = Vec::with_capacity(observation.table_count());
        start.push(0);
        for (t, table) in observation.tables().iter().enumerate() {
            for ci in 0..observation.entry(t).candidate_count() {
                each(t, ci);
                table_of.push(t as u32);
                uids.push(table.table_uid);
            }
            start.push(table_of.len() as u32);
        }
        Layout {
            start,
            table_of,
            uids: uids.into(),
        }
    }

    fn slots_of(&self, table: usize) -> Range<usize> {
        self.start[table] as usize..self.start[table + 1] as usize
    }

    /// The slot's table position and its candidate index within the
    /// table's entry.
    fn locate(&self, slot: usize) -> (usize, usize) {
        let table = self.table_of[slot] as usize;
        (table, slot - self.start[table] as usize)
    }

    /// Identity of a slot as borrowed parts: the form the rank tie-break
    /// compares and [`id`](Self::id) materializes. The single-candidate
    /// scopes never observe partitions, so their identities need no
    /// entry.
    fn id_parts<'a>(
        &self,
        observation: &'a FleetObservation,
        slot: usize,
    ) -> (u64, ScopeKind, Option<&'a str>) {
        let uid = self.uids[slot];
        match observation.scope() {
            ScopeStrategy::Table | ScopeStrategy::Snapshot { .. } => {
                (uid, observation.single_scope(), None)
            }
            ScopeStrategy::Partition | ScopeStrategy::Hybrid => {
                let (table, ci) = self.locate(slot);
                let (scope, partition, _) = candidate_parts(observation, table, ci);
                (uid, scope, partition)
            }
        }
    }

    fn id(&self, observation: &FleetObservation, slot: usize) -> CandidateId {
        let (table_uid, scope, partition) = self.id_parts(observation, slot);
        CandidateId {
            table_uid,
            scope,
            partition: partition.map(str::to_string),
        }
    }

    fn stats<'a>(&self, observation: &'a FleetObservation, slot: usize) -> &'a CandidateStats {
        let (table, ci) = self.locate(slot);
        candidate_parts(observation, table, ci).2
    }
}

/// Scope kind, partition label and stats of the `ci`-th candidate of the
/// table at `table` — exactly what
/// [`FleetObservation::to_candidates`] builds, in the same order.
fn candidate_parts(
    observation: &FleetObservation,
    table: usize,
    ci: usize,
) -> (ScopeKind, Option<&str>, &CandidateStats) {
    match observation.entry(table) {
        TableObservation::Table(stats) => (observation.single_scope(), None, stats),
        TableObservation::Partitions(parts) => {
            let (label, stats) = &parts[ci];
            (ScopeKind::Partition, Some(label.as_str()), stats)
        }
        TableObservation::Missing => unreachable!("missing entries have no slots"),
    }
}

/// The decide phase's retained store (see the module docs).
#[derive(Debug)]
pub(crate) struct DecideState {
    keys: Keys,
    /// Serial of the observation the state was last patched against.
    over: u64,
    layout: Layout,
    /// Per slot: `None` when the filter chain kept the candidate, else its
    /// drop reason.
    verdicts: Vec<Option<Arc<str>>>,
    /// Per slot: trait values, one column per interned trait; zero on
    /// dropped slots.
    pub(crate) traits: TraitMatrix,
    /// Per slot: the last score computed, under `selection`'s bounds;
    /// shared with the lazy tail of the last report.
    scores: Arc<[f64]>,
    /// Bound bits and retained prefix of the last selection.
    pub(crate) selection: Selection,
    /// Slots the job ledger suppressed last cycle, ascending.
    live: Vec<u32>,
    /// The slots whose score the last rank pass wrote, ascending, or
    /// `None` when it wrote every ranked slot's. A restored state counts
    /// the scores its delta carried over the base, none without one.
    rescored: Option<Vec<u32>>,
    /// Slots the filter dropped or whose trait row holds a NaN.
    excluded: Bits,
    /// The ranked set, shared with the lazy tail of the last report.
    ranked: Arc<Bits>,
    /// Per trait column, its min and max over `ranked`.
    bounds: Bounds,
}

/// One cycle's ranking inputs: the drop trail and the stale slots.
pub(crate) struct Mask {
    /// Filter drops, then ledger hits, then NaN rows, each in slot order.
    pub(crate) dropped: Vec<(CandidateId, Arc<str>)>,
    /// Ranked slots whose retained score is stale, ascending; empty
    /// while no selection is retained.
    pub(crate) fresh: Vec<u32>,
    /// Ledger hits this cycle.
    pub(crate) suppressed: usize,
}

impl DecideState {
    /// A state over every slot of `observation` with each slot's filter
    /// verdict, its trait values, score and bitmaps not filled in yet.
    fn blank(
        observation: &FleetObservation,
        traits: &TraitMatrix,
        keys: Keys,
        mut verdict: impl FnMut(usize, usize) -> Option<Arc<str>>,
    ) -> Self {
        let mut verdicts = Vec::with_capacity(observation.table_count());
        let layout = Layout::of(observation, |t, ci| verdicts.push(verdict(t, ci)));
        let slots = layout.table_of.len();
        DecideState {
            keys,
            over: observation.serial(),
            layout,
            verdicts,
            traits: traits.resized(slots),
            scores: vec![0.0; slots].into(),
            selection: Selection::default(),
            live: Vec::new(),
            rescored: None,
            excluded: Bits::default(),
            ranked: Arc::default(),
            bounds: Bounds::stale(traits.width()),
        }
    }

    /// Tables laid out in the retained state.
    pub(crate) fn tables(&self) -> usize {
        self.layout.start.len() - 1
    }

    /// Whether this retained state may serve a cycle over `observation`
    /// under `keys` (see the module docs).
    pub(crate) fn usable(
        &self,
        keys: &Keys,
        observation: &FleetObservation,
        time_sensitive: bool,
        width: usize,
    ) -> bool {
        self.keys.epoch == keys.epoch
            && self.keys.scope == keys.scope
            && Some(self.over) == observation.prior_serial()
            && self.traits.width() == width
            && (!time_sensitive || self.keys.now_ms == keys.now_ms)
    }

    /// The filter step of a cycle. A `prior` state (already checked
    /// [`usable`](Self::usable)) is patched in place or remapped onto the
    /// observation's listing, and its patched tables re-filtered; without
    /// one every slot is filtered as the state is laid out. Returns the
    /// state and the patched listing positions, ascending.
    pub(crate) fn filter(
        prior: Option<DecideState>,
        keys: Keys,
        template: &TraitMatrix,
        filters: &[Box<dyn CandidateFilter>],
        observation: &FleetObservation,
    ) -> (DecideState, Vec<u32>) {
        let now_ms = keys.now_ms;
        let verdict = |t: usize, ci: usize| {
            let (scope, partition, stats) = candidate_parts(observation, t, ci);
            let view = CandidateView::new(&observation.tables()[t], scope, partition, stats);
            evaluate_chain(filters, &view, now_ms).map(Arc::from)
        };
        let (mut state, patched) = match prior {
            Some(mut s) if s.patches_in_place(observation) => {
                (s.keys, s.over) = (keys, observation.serial());
                (s, observation.fresh_positions().to_vec())
            }
            Some(s) => s.remap(observation, keys),
            None => {
                let all = (0..observation.table_count() as u32).collect();
                return (
                    DecideState::blank(observation, template, keys, verdict),
                    all,
                );
            }
        };
        for &t in &patched {
            let t = t as usize;
            for (ci, slot) in state.layout.slots_of(t).enumerate() {
                state.verdicts[slot] = verdict(t, ci);
            }
        }
        (state, patched)
    }

    /// Whether the observation keeps every slot where it is: the same
    /// listing, and no fresh table changed its candidate count.
    fn patches_in_place(&self, observation: &FleetObservation) -> bool {
        Arc::ptr_eq(&self.keys.tables, &observation.tables_shared())
            && observation.fresh_positions().iter().all(|t| {
                let t = *t as usize;
                self.layout.slots_of(t).len() == observation.entry(t).candidate_count()
            })
    }

    /// The remap arm: a state laid out over `observation` that keeps the
    /// slots of every quiet table still listed with an equal descriptor
    /// and candidate count, plus the positions of the tables it could not
    /// keep.
    fn remap(self, observation: &FleetObservation, keys: Keys) -> (DecideState, Vec<u32>) {
        let mut next = DecideState::blank(observation, &self.traits, keys, |_, _| None);
        let old_tables = &self.keys.tables;
        let mut moved_to = vec![u32::MAX; self.verdicts.len()];
        let mut uid_map: Option<UidMap<usize>> = None;
        let mut patched = Vec::new();
        // The fresh positions ascend, so one cursor walks them with the
        // listing.
        let mut fresh = observation.fresh_positions().iter().peekable();
        for (t, table) in observation.tables().iter().enumerate() {
            let to = next.layout.slots_of(t);
            let prior = if fresh.next_if(|f| **f as usize == t).is_some() {
                None
            } else if old_tables.get(t).map(|o| o.table_uid) == Some(table.table_uid) {
                Some(t)
            } else {
                let map = uid_map.get_or_insert_with(|| {
                    let uids = old_tables.iter().map(|o| o.table_uid);
                    uids.enumerate().map(|(i, uid)| (uid, i)).collect()
                });
                map.get(&table.table_uid).copied()
            };
            let prior = prior
                .filter(|p| old_tables[*p] == *table && self.layout.slots_of(*p).len() == to.len());
            let Some(p) = prior else {
                patched.push(t as u32);
                continue;
            };
            let from = self.layout.slots_of(p);
            next.verdicts[to.clone()].clone_from_slice(&self.verdicts[from.clone()]);
            Arc::make_mut(&mut next.scores)[to.clone()].copy_from_slice(&self.scores[from.clone()]);
            for id in self.traits.trait_ids() {
                next.traits.col_mut(id)[to.clone()]
                    .copy_from_slice(&self.traits.col(id)[from.clone()]);
            }
            for (old, new) in from.zip(to) {
                moved_to[old] = new as u32;
            }
        }
        let moved = |slot: &u32| Some(moved_to[*slot as usize]).filter(|s| *s != u32::MAX);
        next.selection = self.selection;
        next.selection.remap(moved);
        next.live = self.live.iter().filter_map(moved).collect();
        next.live.sort_unstable();
        next.rebuild_sets();
        (next, patched)
    }

    /// The orient step: computes the trait rows of the patched tables'
    /// kept slots, one stats access per slot, zeroes the rows of dropped
    /// ones, and patches the bitmaps and the bounds (see the module docs).
    pub(crate) fn orient(
        &mut self,
        patched: &[u32],
        traits: &[Box<dyn TraitComputer>],
        columns: &[TraitId],
        observation: &FleetObservation,
    ) {
        // Past a quarter of the tables, re-deriving beats tracking each row.
        let track = patched.len() * 4 < self.tables();
        let ranked = Arc::make_mut(&mut self.ranked);
        let mut row = vec![0.0; self.traits.width()];
        for &t in patched {
            for (ci, slot) in self.layout.slots_of(t as usize).enumerate() {
                let kept = self.verdicts[slot].is_none();
                let stats = candidate_parts(observation, t as usize, ci).2;
                row.fill(0.0);
                for (computer, col) in traits.iter().zip(columns).filter(|_| kept) {
                    row[col.index()] = computer.compute(stats);
                }
                let (s, kept) = (slot as u32, kept && !row.iter().any(|v| v.is_nan()));
                let ranks = track && kept && self.live.binary_search(&s).is_err();
                let was = track && ranked.contains(s);
                for (id, v) in self.traits.trait_ids().zip(&row) {
                    if ranks {
                        self.bounds.step(id, *v, true);
                    }
                    if was {
                        self.bounds.step(id, self.traits.value(slot, id), false);
                    }
                    self.traits.col_mut(id)[slot] = *v;
                }
                self.excluded.put(s, !kept);
                if track {
                    ranked.put(s, ranks);
                }
            }
        }
        if !track {
            self.rerank();
        }
    }

    /// Moves `slot`, its trait row unchanged, into or out of the ranked
    /// set and the bounds.
    fn set_ranked(&mut self, slot: u32, ranks: bool) {
        let moved = Arc::make_mut(&mut self.ranked).put(slot, ranks);
        for id in self.traits.trait_ids().filter(|_| moved) {
            self.bounds
                .step(id, self.traits.value(slot as usize, id), ranks);
        }
    }

    fn first_nan(&self, slot: usize) -> Option<TraitId> {
        let traits = &self.traits;
        traits
            .trait_ids()
            .find(|id| traits.value(slot, *id).is_nan())
    }

    /// The ranking mask of one cycle (see the module docs): `live` names
    /// the listing positions of the ledger's live tables with their
    /// reasons. The ranked slots to re-score are those of the `patched`
    /// tables and of tables that left the ledger since the last cycle.
    pub(crate) fn mask(
        &mut self,
        observation: &FleetObservation,
        patched: &[u32],
        live: Vec<(usize, Arc<str>)>,
    ) -> Mask {
        let mut hits: Vec<(u32, Arc<str>)> = Vec::new();
        for (table, reason) in live {
            let kept = self
                .layout
                .slots_of(table)
                .filter(|s| self.verdicts[*s].is_none());
            hits.extend(kept.map(|slot| (slot as u32, reason.clone())));
        }
        hits.sort_unstable_by_key(|(slot, _)| *slot);
        let live: Vec<u32> = hits.iter().map(|(slot, _)| *slot).collect();
        let left: Vec<u32> = (self.live.iter().copied())
            .filter(|s| live.binary_search(s).is_err())
            .collect();
        live.iter().for_each(|s| self.set_ranked(*s, false));
        left.iter()
            .for_each(|s| self.set_ranked(*s, !self.excluded.contains(*s)));

        let layout = &self.layout;
        let id = |slot: u32| layout.id(observation, slot as usize);
        let reason = |slot: u32| Some((id(slot), self.verdicts[slot as usize].clone()?));
        let mut dropped: Vec<_> = self.excluded.ones().filter_map(reason).collect();
        let suppressed = hits.len();
        dropped.extend(hits.into_iter().map(|(slot, reason)| (id(slot), reason)));
        let mut notes: Vec<Option<Arc<str>>> = vec![None; self.traits.width()];
        let nan_rows = self
            .excluded
            .ones()
            .filter(|s| self.verdicts[*s as usize].is_none());
        for slot in nan_rows.filter(|s| live.binary_search(s).is_err()) {
            let nan = self.first_nan(slot as usize).expect("a NaN row");
            let note = notes[nan.index()].get_or_insert_with(|| {
                let trait_name = self.traits.trait_name(nan).into();
                Arc::from(DecisionNote::NanTrait { trait_name }.to_string())
            });
            dropped.push((id(slot), note.clone()));
        }

        // Stale scores matter only to a retained selection.
        let patched_slots = patched.iter().flat_map(|t| layout.slots_of(*t as usize));
        let mut fresh: Vec<u32> = match self.selection.is_retained() {
            true => (patched_slots.map(|slot| slot as u32))
                .chain(left)
                .filter(|slot| self.ranked.contains(*slot))
                .collect(),
            false => Vec::new(),
        };
        fresh.sort_unstable();
        fresh.dedup();
        self.live = live;
        Mask {
            dropped,
            fresh,
            suppressed,
        }
    }

    /// Derives the bitmaps from the verdicts, the trait rows and the live
    /// slots: how a remap or a restore completes a state laid out anew.
    fn rebuild_sets(&mut self) {
        let out = |(slot, v): (usize, &Option<_>)| v.is_some() || self.first_nan(slot).is_some();
        self.excluded = self.verdicts.iter().enumerate().map(out).collect();
        self.rerank();
    }

    /// The ranked set from the excluded and live slots, every bound stale.
    fn rerank(&mut self) {
        let mut ranked = self.excluded.complement(self.slots());
        self.live.iter().for_each(|slot| _ = ranked.clear(*slot));
        (self.ranked, self.bounds) = (Arc::new(ranked), Bounds::stale(self.traits.width()));
    }

    /// The rank step: ranks the ranked set under `policy`, re-scoring
    /// the `fresh` slots a mask names stale, and keeps the scores and
    /// selection for the next cycle.
    pub(crate) fn rank(
        &mut self,
        observation: &FleetObservation,
        policy: &RankingPolicy,
        fresh: &[u32],
    ) -> Result<(RankedEntries, RankCycleStats)> {
        let source = SlotSource {
            layout: &self.layout,
            observation,
        };
        let slots = Slots {
            ranked: &self.ranked,
            fresh,
            scores: &mut self.scores,
            selection: &mut self.selection,
            bounds: &mut self.bounds,
        };
        let ranked = rank_slots(&source, &self.traits, policy, slots);
        // A pass that kept no score re-scored every ranked slot; else it
        // re-scored the fresh ones, and an error scored none.
        self.rescored = match &ranked {
            Ok((_, stats)) if stats.spliced_scores == 0 && stats.recomputed_scores > 0 => None,
            Ok(_) => Some(fresh.to_vec()),
            Err(_) => Some(Vec::new()),
        };
        ranked
    }

    /// Identity of the slot layout: one allocation per layout, shared by
    /// every cycle that patches the state in place.
    pub(crate) fn layout_id(&self) -> &Arc<[u64]> {
        &self.layout.uids
    }

    /// Number of candidate slots.
    pub(crate) fn slots(&self) -> usize {
        self.verdicts.len()
    }

    /// Marks in `tables` the listing position of every slot whose score
    /// the last rank pass wrote (on a restored state, the restored delta);
    /// `false`, with nothing marked, when it wrote them all.
    pub(crate) fn mark_rescored(&self, tables: &mut Bits) -> bool {
        let Some(slots) = &self.rescored else {
            return false;
        };
        for slot in slots {
            tables.set(self.layout.table_of[*slot as usize]);
        }
        true
    }

    /// The candidate at `slot`, materialized for the act phase.
    pub(crate) fn candidate(&self, observation: &FleetObservation, slot: usize) -> Candidate {
        let (table, _) = self.layout.locate(slot);
        Candidate::new(
            self.layout.id(observation, slot),
            &observation.tables()[table],
            self.layout.stats(observation, slot).clone(),
        )
    }

    /// Whether the state was patched against exactly `observation` in
    /// `epoch`, and that observation carries a change cursor — the rule a
    /// snapshot persists it under.
    pub(crate) fn live_for(&self, epoch: u64, observation: &FleetObservation) -> bool {
        self.keys.epoch == epoch && self.over == observation.serial() && self.keys.cursor.is_some()
    }
}

/// [`RankSource`] over the slots of an observation: identities derived
/// on demand (no fleet-sized id vector), quota signals read straight from
/// the entry stats.
struct SlotSource<'a> {
    layout: &'a Layout,
    observation: &'a FleetObservation,
}

impl RankSource for SlotSource<'_> {
    fn tail_identity(&self) -> Option<(ScopeKind, Arc<[u64]>)> {
        let uniform = matches!(
            self.observation.scope(),
            ScopeStrategy::Table | ScopeStrategy::Snapshot { .. }
        );
        uniform.then(|| (self.observation.single_scope(), self.layout.uids.clone()))
    }
    fn id(&self, index: usize) -> CandidateId {
        self.layout.id(self.observation, index)
    }
    fn cmp_ids(&self, a: usize, b: usize) -> std::cmp::Ordering {
        let parts = |slot| self.layout.id_parts(self.observation, slot);
        parts(a).cmp(&parts(b))
    }
    fn quota_utilization(&self, index: usize) -> f64 {
        let stats = self.layout.stats(self.observation, index);
        stats.quota.map(|q| q.utilization()).unwrap_or(0.0)
    }
}

/// Writes the decide-state section of a snapshot: the state while it is
/// live for `observation` in `epoch`, else its absence.
pub(crate) fn snapshot_write(
    state: Option<&DecideState>,
    enc: &mut Encoder,
    epoch: u64,
    observation: &FleetObservation,
) {
    let Some(s) = state.filter(|s| s.live_for(epoch, observation)) else {
        enc.put_bool(false);
        return;
    };
    enc.put_bool(true);
    enc.put_u64(s.keys.now_ms);
    put_verdicts(enc, &s.verdicts);
    for id in s.traits.trait_ids() {
        s.traits.col(id).iter().for_each(|v| enc.put_f64(*v));
    }
    s.scores.iter().for_each(|v| enc.put_f64(*v));
    s.selection.snapshot_write(enc);
    put_live(enc, &s.live);
}

/// Writes the decide-state section of a snapshot delta over a base that
/// holds this state's layout: the state's presence, and while present
/// its fill time, the verdicts, trait rows and scores of the slots of the
/// `changed` listing positions, every score when `all_scores`, the
/// selection and the live slots.
pub(crate) fn delta_write(
    state: Option<&DecideState>,
    enc: &mut Encoder,
    epoch: u64,
    observation: &FleetObservation,
    changed: &Bits,
    all_scores: bool,
) {
    let Some(s) = state.filter(|s| s.live_for(epoch, observation)) else {
        enc.put_bool(false);
        return;
    };
    enc.put_bool(true);
    enc.put_u64(s.keys.now_ms);
    let slots: Vec<usize> = changed
        .ones()
        .flat_map(|t| s.layout.slots_of(t as usize))
        .collect();
    let verdicts: Vec<Option<Arc<str>>> =
        slots.iter().map(|slot| s.verdicts[*slot].clone()).collect();
    put_verdicts(enc, &verdicts);
    for id in s.traits.trait_ids() {
        let col = s.traits.col(id);
        slots.iter().for_each(|slot| enc.put_f64(col[*slot]));
    }
    enc.put_bool(all_scores);
    match all_scores {
        true => s.scores.iter().for_each(|v| enc.put_f64(*v)),
        false => slots.iter().for_each(|slot| enc.put_f64(s.scores[*slot])),
    }
    s.selection.snapshot_write(enc);
    put_live(enc, &s.live);
}

/// Verdicts as a count, one tag byte each, then their reasons interned:
/// the distinct strings once, then one index per dropped slot, so a
/// restore shares one `Arc<str>` per reason again.
fn put_verdicts(enc: &mut Encoder, verdicts: &[Option<Arc<str>>]) {
    enc.put_u64(verdicts.len() as u64);
    let tags: Vec<u8> = verdicts.iter().map(|v| v.is_some() as u8).collect();
    enc.put_raw(&tags);
    let mut distinct: Vec<&str> = Vec::new();
    let mut index_of = BTreeMap::new();
    let reasons: Vec<u32> = verdicts
        .iter()
        .flatten()
        .map(|reason| {
            *index_of.entry(&**reason).or_insert_with(|| {
                distinct.push(reason);
                distinct.len() as u32 - 1
            })
        })
        .collect();
    enc.put_u64(distinct.len() as u64);
    for reason in distinct {
        enc.put_str(reason);
    }
    for index in reasons {
        enc.put_u32(index);
    }
}

/// Reads what [`put_verdicts`] wrote into `verdicts`, whose length the
/// count must equal.
fn take_verdicts(
    dec: &mut Decoder<'_>,
    verdicts: &mut [Option<Arc<str>>],
) -> std::result::Result<(), CodecError> {
    if dec.take_len(1, "decide slots")? != verdicts.len() {
        return Err(CodecError::Invalid(
            "decide state does not fit the observation",
        ));
    }
    let tags = dec.take_raw(verdicts.len(), "decide verdicts")?;
    let distinct = (0..dec.take_len(8, "decide reasons")?)
        .map(|_| Ok(Arc::from(dec.take_str("decide reason")?)))
        .collect::<std::result::Result<Vec<Arc<str>>, CodecError>>()?;
    for (verdict, tag) in verdicts.iter_mut().zip(tags) {
        *verdict = match tag {
            0 => None,
            1 => {
                let index = dec.take_u32("decide reason index")? as usize;
                let reason = distinct.get(index);
                Some(
                    reason
                        .cloned()
                        .ok_or(CodecError::Invalid("decide reason index"))?,
                )
            }
            _ => return Err(CodecError::Invalid("decide verdict")),
        };
    }
    Ok(())
}

/// Reads `n` `f64`s, handing each to `put` with its index.
fn take_f64s(
    dec: &mut Decoder<'_>,
    n: usize,
    what: &'static str,
    mut put: impl FnMut(usize, f64),
) -> std::result::Result<(), CodecError> {
    let raw = dec.take_raw(n * 8, what)?;
    for (i, word) in raw.chunks_exact(8).enumerate() {
        put(
            i,
            f64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    Ok(())
}

fn put_live(enc: &mut Encoder, live: &[u32]) {
    enc.put_u64(live.len() as u64);
    live.iter().for_each(|slot| enc.put_u32(*slot));
}

fn take_live(dec: &mut Decoder<'_>, slots: usize) -> std::result::Result<Vec<u32>, CodecError> {
    let mut live = (0..dec.take_len(4, "decide live slots")?)
        .map(|_| match dec.take_u32("decide live slot")? {
            slot if (slot as usize) < slots => Ok(slot),
            _ => Err(CodecError::Invalid("decide live slot out of bounds")),
        })
        .collect::<std::result::Result<Vec<u32>, CodecError>>()?;
    live.sort_unstable();
    live.dedup();
    Ok(live)
}

/// Reads the decide-state section of a snapshot, laying the slots out
/// from the restored `observation`, under `keys` (whose fill time the
/// section supplies) and `template`'s traits, whose width the
/// fingerprint's trait names fix, so the section does not carry it.
/// Every count, index and slot is checked against the layout before the
/// state is built.
///
/// With a `delta` — the decoder of a delta's decide-state section and
/// the listing positions the delta replaced in `observation` — the
/// delta's slots, fill time, selection and live slots then replace the
/// base's. Each replaced position must keep its table's slot count, so
/// the base's layout still holds. The state's re-scored slots are the
/// ones the delta carried scores for (see [`DecideState::mark_rescored`]).
pub(crate) fn snapshot_read(
    dec: &mut Decoder<'_>,
    delta: Option<(&mut Decoder<'_>, &[u32])>,
    keys: Keys,
    template: &TraitMatrix,
    observation: &FleetObservation,
) -> std::result::Result<Option<DecideState>, CodecError> {
    let present = dec.take_bool("decide state present")?;
    let mut delta = delta;
    if let Some((d, _)) = delta.as_mut() {
        if d.take_bool("decide state present")? != present {
            return Err(CodecError::Invalid(
                "delta and base disagree on the decide state",
            ));
        }
    }
    if !present {
        return Ok(None);
    }
    let now_ms = dec.take_u64("decide fill time")?;
    let mut s = DecideState::blank(observation, template, Keys { now_ms, ..keys }, |_, _| None);
    let slots = s.slots();
    take_verdicts(dec, &mut s.verdicts)?;
    for id in template.trait_ids() {
        let column = s.traits.col_mut(id);
        take_f64s(dec, slots, "decide trait column", |i, v| column[i] = v)?;
    }
    let scores = Arc::make_mut(&mut s.scores);
    take_f64s(dec, slots, "decide scores", |i, v| scores[i] = v)?;
    s.selection = Selection::snapshot_read(dec, slots)?;
    s.live = take_live(dec, slots)?;
    s.rescored = Some(Vec::new());
    if let Some((d, positions)) = delta {
        apply_delta(d, &mut s, positions, observation)?;
    }
    s.rebuild_sets();
    Ok(Some(s))
}

/// Reads what [`delta_write`] wrote after the presence flag over `s`, the
/// state its base restored, once each replaced position is checked to
/// keep its table's slot count.
fn apply_delta(
    dec: &mut Decoder<'_>,
    s: &mut DecideState,
    positions: &[u32],
    observation: &FleetObservation,
) -> std::result::Result<(), CodecError> {
    let now_ms = dec.take_u64("decide fill time")?;
    let mut slots = Vec::new();
    for &t in positions {
        let range = s.layout.slots_of(t as usize);
        if range.len() != observation.entry(t as usize).candidate_count() {
            return Err(CodecError::Invalid("delta moves a decide-state slot"));
        }
        slots.extend(range);
    }
    let mut verdicts = vec![None; slots.len()];
    take_verdicts(dec, &mut verdicts)?;
    for (slot, verdict) in slots.iter().zip(verdicts) {
        s.verdicts[*slot] = verdict;
    }
    for id in s.traits.trait_ids() {
        let column = s.traits.col_mut(id);
        take_f64s(dec, slots.len(), "delta trait values", |i, v| {
            column[slots[i]] = v
        })?;
    }
    let scores = Arc::make_mut(&mut s.scores);
    s.rescored = match dec.take_bool("delta scores whole")? {
        true => {
            take_f64s(dec, scores.len(), "delta scores", |i, v| scores[i] = v)?;
            None
        }
        false => {
            take_f64s(dec, slots.len(), "delta scores", |i, v| {
                scores[slots[i]] = v
            })?;
            Some(slots.iter().map(|slot| *slot as u32).collect())
        }
    };
    s.selection = Selection::snapshot_read(dec, s.slots())?;
    s.live = take_live(dec, s.slots())?;
    s.keys.now_ms = now_ms;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::LakeConnector;
    use crate::observe::FleetObserver;

    /// Three tables behind a changelog that never records a write.
    struct QuietLake;

    impl LakeConnector for QuietLake {
        fn list_tables(&self) -> Vec<TableRef> {
            (0..3)
                .map(|uid| TableRef {
                    table_uid: uid,
                    database: "db".into(),
                    name: format!("t{uid}").into(),
                    partitioned: false,
                    compaction_enabled: true,
                    is_intermediate: false,
                })
                .collect()
        }
        fn table_stats(&self, _uid: u64) -> Option<CandidateStats> {
            Some(CandidateStats::default())
        }
        fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
            Vec::new()
        }
        fn fleet_cursor(&self) -> Option<ChangeCursor> {
            Some(ChangeCursor(0))
        }
        fn changes_since(&self, _cursor: ChangeCursor) -> Option<Vec<u64>> {
            Some(Vec::new())
        }
    }

    /// Each key gates reuse on its own: the epoch, the scope, the width,
    /// the chain and — for a time-sensitive chain only — the fill time.
    /// The chain is the observer's own: another observer's pass over the
    /// same quiet lake carries the same cursors and is still not it.
    #[test]
    fn every_key_gates_reuse() {
        use ScopeStrategy::{Hybrid, Table};
        let mut observer = FleetObserver::new();
        let first = observer.observe(&QuietLake, Table).clone();
        let keys = |epoch, scope, now_ms| Keys {
            epoch,
            scope,
            cursor: first.cursor(),
            now_ms,
            tables: first.tables_shared(),
        };
        let mut template = TraitMatrix::new(0);
        template.intern("t", None);
        let (state, patched) =
            DecideState::filter(None, keys(1, Table, 100), &template, &[], &first);
        assert_eq!(patched, [0, 1, 2], "no state patches every table");
        let next = observer.observe(&QuietLake, Table);
        let usable =
            |keys: Keys, time_sensitive, width| state.usable(&keys, next, time_sensitive, width);
        assert!(usable(keys(1, Table, 200), false, 1));
        assert!(!usable(keys(2, Table, 200), false, 1), "epoch");
        assert!(!usable(keys(1, Hybrid, 200), false, 1), "scope");
        assert!(!usable(keys(1, Table, 200), false, 2), "width");
        assert!(!usable(keys(1, Table, 200), true, 1), "fill time");
        assert!(usable(keys(1, Table, 100), true, 1), "same fill time");
        let unchained = FleetObserver::new().observe(&QuietLake, Table).clone();
        assert!(
            !state.usable(&keys(1, Table, 200), &unchained, false, 1),
            "chain"
        );
        let mut other = FleetObserver::new();
        other.observe(&QuietLake, Table);
        let foreign = other.observe(&QuietLake, Table);
        assert!(foreign.prior_serial().is_some() && foreign.cursor() == next.cursor());
        assert!(
            !state.usable(&keys(1, Table, 200), foreign, false, 1),
            "chain"
        );
    }

    /// Tables whose stats a test rewrites, behind a changelog of the
    /// writes and an unchanging listing epoch.
    struct WrittenLake {
        stats: std::sync::Mutex<Vec<CandidateStats>>,
        log: std::sync::Mutex<Vec<u64>>,
    }

    impl LakeConnector for WrittenLake {
        fn list_tables(&self) -> Vec<TableRef> {
            let n = self.stats.lock().unwrap().len() as u64;
            (0..n)
                .map(|uid| TableRef {
                    table_uid: uid,
                    database: "db".into(),
                    name: format!("t{uid}").into(),
                    partitioned: false,
                    compaction_enabled: true,
                    is_intermediate: false,
                })
                .collect()
        }
        fn table_stats(&self, uid: u64) -> Option<CandidateStats> {
            self.stats.lock().unwrap().get(uid as usize).cloned()
        }
        fn partition_stats(&self, _uid: u64) -> Vec<(String, CandidateStats)> {
            Vec::new()
        }
        fn fleet_cursor(&self) -> Option<ChangeCursor> {
            Some(ChangeCursor(self.log.lock().unwrap().len() as u64))
        }
        fn changes_since(&self, cursor: ChangeCursor) -> Option<Vec<u64>> {
            self.log
                .lock()
                .unwrap()
                .get(cursor.0 as usize..)
                .map(<[u64]>::to_vec)
        }
        fn listing_epoch(&self) -> Option<u64> {
            Some(0)
        }
    }

    /// A trait that reads one stats field through a palette of values.
    struct Palette(&'static str, fn(&CandidateStats) -> u64, [f64; 8]);

    impl TraitComputer for Palette {
        fn name(&self) -> &str {
            self.0
        }
        fn direction(&self) -> crate::traits::TraitDirection {
            crate::traits::TraitDirection::Benefit
        }
        fn compute(&self, stats: &CandidateStats) -> f64 {
            self.2[(self.1)(stats) as usize % 8]
        }
    }

    /// Over random sequences of writes, filter drops, NaN rows, ledger
    /// entries and exits, signed zeros and tied extremes, the retained
    /// ranked set is exactly the slots a walk over every verdict would
    /// rank — kept, NaN-free, not live — and every column's bounds are
    /// bit-equal to the in-order fold over them, maintained or rescanned.
    #[test]
    fn ranked_set_and_bounds_match_a_walk_over_every_slot() {
        const TABLES: u64 = 48;
        let lake = WrittenLake {
            stats: std::sync::Mutex::new(vec![CandidateStats::default(); TABLES as usize]),
            log: std::sync::Mutex::new(Vec::new()),
        };
        let nan = f64::NAN;
        let traits: Vec<Box<dyn TraitComputer>> = vec![
            // Zero extremes of both signs.
            Box::new(Palette(
                "zeros",
                |s| s.small_file_count,
                [0.0, -0.0, 0.0, 1.0, 2.0, nan, 2.0, -0.0],
            )),
            // Tied extremes on both ends.
            Box::new(Palette(
                "ties",
                |s| s.file_count,
                [-1.0, 3.0, 5.0, 0.5, 5.0, -1.0, 2.0, 3.0],
            )),
            // Mostly one holder per extreme.
            Box::new(Palette(
                "spread",
                |s| s.small_bytes,
                [-4.0, 1.5, 9.0, 2.5, -7.0, 6.0, 0.25, 8.0],
            )),
        ];
        let mut template = TraitMatrix::new(0);
        let columns: Vec<TraitId> = traits
            .iter()
            .map(|t| template.intern(t.name(), Some(t.direction())))
            .collect();
        let filters: Vec<Box<dyn CandidateFilter>> = vec![Box::new(crate::filter::MinSizeFilter {
            min_total_bytes: 1,
            min_file_count: 0,
        })];
        let policy = RankingPolicy::Moop {
            weights: vec![
                crate::rank::TraitWeight::new("zeros", 0.2),
                crate::rank::TraitWeight::new("ties", 0.4),
                crate::rank::TraitWeight::new("spread", 0.4),
            ],
            k: 3,
        };
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut rng = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let mut observer = FleetObserver::new();
        let mut state: Option<DecideState> = None;
        let mut maintained = [0; 3];
        for cycle in 0..400u64 {
            // Mostly a few writes; now and then a quarter of the fleet or
            // more, which re-derives the ranked set in place.
            let writes = if rng(10) == 0 {
                12 + rng(12)
            } else {
                1 + rng(6)
            };
            for _ in 0..writes {
                let uid = rng(TABLES);
                let mut stats = lake.stats.lock().unwrap();
                let s = &mut stats[uid as usize];
                (s.small_file_count, s.file_count) = (rng(8), rng(8));
                (s.small_bytes, s.total_bytes) = (rng(8), rng(9));
                lake.log.lock().unwrap().push(uid);
            }
            let observation = observer.observe(&lake, ScopeStrategy::Table);
            let keys = Keys {
                epoch: 1,
                scope: ScopeStrategy::Table,
                cursor: observation.cursor(),
                now_ms: 0,
                tables: observation.tables_shared(),
            };
            // Now and then the state is dropped (orient fills every slot),
            // or restored from a snapshot (the bitmaps are derived).
            let prior = state
                .take()
                .filter(|s| rng(20) > 0 && s.usable(&keys, observation, false, 3));
            let (mut s, patched) =
                DecideState::filter(prior, keys, &template, &filters, observation);
            s.orient(&patched, &traits, &columns, observation);
            let live = (0..rng(5)).map(|_| (rng(TABLES) as usize, Arc::from("live")));
            let mask = s.mask(observation, &patched, live.collect());
            // NaN rows of one trait share one reason.
            let nan_reasons: Vec<&Arc<str>> = (mask.dropped.iter())
                .map(|(_, reason)| reason)
                .filter(|reason| reason.contains("is NaN"))
                .collect();
            assert!(nan_reasons.windows(2).all(|w| Arc::ptr_eq(w[0], w[1])));
            let walk: Vec<u32> = (0..s.slots() as u32)
                .filter(|slot| {
                    let slot = *slot as usize;
                    s.verdicts[slot].is_none()
                        && s.first_nan(slot).is_none()
                        && s.live.binary_search(&(slot as u32)).is_err()
                })
                .collect();
            assert_eq!(s.ranked.ones().collect::<Vec<_>>(), walk, "cycle {cycle}");
            assert_eq!(s.ranked.count(), walk.len(), "cycle {cycle}");
            for id in template.trait_ids() {
                let col = s.traits.col(id);
                let fold = crate::rank::column_min_max(col, walk.iter().copied());
                let (lo, hi) = s.bounds.clone().get(id, col, &s.ranked);
                let bits = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
                assert_eq!(bits((lo, hi)), bits(fold), "cycle {cycle}, {id:?}");
                maintained[id.index()] += crate::rank::tests::maintained(&s.bounds, id) as u32;
            }
            s.rank(observation, &policy, &mask.fresh).unwrap();
            if rng(7) == 0 {
                let mut enc = Encoder::new();
                snapshot_write(Some(&s), &mut enc, 1, observation);
                let bytes = enc.into_bytes();
                let keys = s.keys.clone();
                let read = snapshot_read(
                    &mut Decoder::new(&bytes),
                    None,
                    keys,
                    &template,
                    observation,
                );
                s = read.unwrap().expect("a live state is persisted");
            }
            state = Some(s);
        }
        // Every column is read maintained in some cycles, rescanned in
        // others.
        assert!(
            maintained.iter().all(|m| (1..400).contains(m)),
            "{maintained:?}"
        );
    }
}
