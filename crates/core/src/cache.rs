//! Cross-cycle caching of per-table pipeline results (filter verdicts +
//! trait rows) for incremental OODA cycles.
//!
//! PR 2 made the *observe* phase incremental: a changelog-backed observe
//! re-fetches stats only for written tables. But filter and orient still
//! recomputed every verdict and every trait value for every table each
//! cycle, even when 99% of the fleet was byte-identical to the previous
//! snapshot. The cycle cache closes that gap: it retains, per table,
//! the filter verdict (with its drop-reason string) and the
//! [`TraitMatrix`](crate::matrix::TraitMatrix) row of each of the table's
//! candidates, keyed by the observation's [`ChangeCursor`] chain, so an
//! incremental cycle recomputes filter/orient only for the dirty set and
//! splices cached rows for the rest. Rank and decide still run
//! fleet-wide every cycle — selection is global (min–max normalization
//! and top-k/budget fits span the whole candidate set).
//!
//! # Validity rules (what invalidates what)
//!
//! A cached generation is spliceable into a cycle only when **all** of
//! the following hold; otherwise the cycle recomputes everything (and
//! refills the cache):
//!
//! * **Cursor chain** — the observation was derived incrementally from
//!   the exact snapshot the cache was computed against:
//!   [`FleetObservation::prior_cursor`] equals the cache's stored cursor.
//! * **Epoch** — the pipeline's configuration epoch is unchanged. The
//!   epoch bumps on every filter/trait/scheduler registration, on every
//!   [`config_mut`](crate::pipeline::AutoComp::config_mut) access, and on
//!   explicit
//!   [`invalidate_cycle_cache`](crate::pipeline::AutoComp::invalidate_cycle_cache)
//!   calls — any edit that could change verdicts, trait values, or their
//!   meaning flushes the cache. (Feedback calibration does *not* bump the
//!   epoch: it scales act-phase predictions, which are recomputed every
//!   cycle from the matrix; cached trait rows are calibration-free.)
//! * **Scope & width** — same scope strategy and same trait-column count.
//! * **Clock** — if any filter in the chain is
//!   [time-sensitive](crate::filter::CandidateFilter::time_sensitive),
//!   the cycle timestamp must match the fill timestamp; time-insensitive
//!   chains splice across moving timestamps.
//!
//! Per table, a cached row is used only when the observation entry was
//! **reused** (not [fresh](crate::observe::FleetObservation::is_fresh)) — fresh entries
//! (changelog hits, `force_dirty` tables even when absent from the
//! changelog, new tables) always recompute — and when the table uid at
//! that position matches (a lazily built uid map handles listing
//! reorders).
//!
//! Storage is flat and generational: one `Vec` each for verdicts, kept
//! trait rows (row-major, moved wholesale from the cycle's orient
//! scratch) and `Arc<str>` drop reasons, plus per-table prefix offsets —
//! rebuilding the next generation during the cycle walk is mostly
//! `memcpy` and refcount bumps, with no per-table allocations.
//!
//! The generation also carries the decide phase's retained state, the
//! rank memo (per-candidate scores, normalization bounds, an exact-order
//! selection prefix), row-aligned with its kept rows so the walk's splice
//! map doubles as the score splice map. The memo has no keys of its own:
//! a cycle gets it exactly when the generation is usable, it is cleared
//! with the generation, and a snapshot persists both under one liveness
//! rule — same epoch, same cursor, literally the same listing as the
//! snapshotted observation. See the [`crate::rank`] module docs for its
//! additional exactness conditions (bit-equal bounds, surviving prefix).
//!
//! [`FleetObservation::prior_cursor`]: crate::observe::FleetObservation::prior_cursor
//! [`FleetObservation::is_fresh`]: crate::observe::FleetObservation::is_fresh

use std::sync::Arc;

use crate::candidate::TableRef;
use crate::observe::{ChangeCursor, FleetObservation};
use crate::rank::RankMemo;
use crate::scope::ScopeStrategy;

/// Splice effectiveness of the most recent cycle (see
/// [`AutoComp::cycle_cache_stats`](crate::pipeline::AutoComp::cycle_cache_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleCacheStats {
    /// Tables whose filter verdicts and trait rows were spliced from the
    /// cache (no filter or trait computation ran for them).
    pub spliced_tables: usize,
    /// Tables recomputed this cycle (dirty, new, reordered past the uid
    /// map, or the whole fleet on a cache miss/flush).
    pub recomputed_tables: usize,
}

/// One cached generation: the per-candidate pipeline artifacts of a
/// single cycle, in observation order, with per-table prefix offsets for
/// O(1) splicing.
#[derive(Debug, Default)]
pub(crate) struct CacheGen {
    /// Table uid per observation position.
    pub(crate) uids: Vec<u64>,
    /// Per table position: start of its candidates in `verdicts`
    /// (`len = tables + 1`, leading 0).
    pub(crate) cand_start: Vec<u32>,
    /// Per table position: kept candidates before it (prefix count).
    pub(crate) kept_start: Vec<u32>,
    /// Per table position: dropped candidates before it (prefix count).
    pub(crate) drop_start: Vec<u32>,
    /// Per candidate: `true` = kept (has a trait row), `false` = dropped
    /// (has a reason).
    pub(crate) verdicts: Vec<bool>,
    /// Row-major trait rows of kept candidates (stride = trait width).
    pub(crate) rows: Vec<f64>,
    /// Drop reasons of dropped candidates, `"filter-name: reason"`.
    pub(crate) reasons: Vec<Arc<str>>,
}

impl CacheGen {
    pub(crate) fn with_capacity(tables: usize) -> Self {
        let mut gen = CacheGen {
            uids: Vec::with_capacity(tables),
            cand_start: Vec::with_capacity(tables + 1),
            kept_start: Vec::with_capacity(tables + 1),
            drop_start: Vec::with_capacity(tables + 1),
            verdicts: Vec::with_capacity(tables),
            rows: Vec::new(),
            reasons: Vec::new(),
        };
        gen.cand_start.push(0);
        gen.kept_start.push(0);
        gen.drop_start.push(0);
        gen
    }

    /// Records a kept candidate (its trait row arrives later via the
    /// moved orient scratch).
    pub(crate) fn push_kept(&mut self) {
        self.verdicts.push(true);
    }

    /// Records a dropped candidate with its chain reason.
    pub(crate) fn push_dropped(&mut self, reason: Arc<str>) {
        self.verdicts.push(false);
        self.reasons.push(reason);
    }

    /// Bulk-appends the table range `a..b` of a prior generation — the
    /// splice of a run of quiet tables. Verdicts, reasons and uids copy as
    /// slices; the prefix arrays shift by a constant.
    pub(crate) fn extend_run(&mut self, old: &CacheGen, a: usize, b: usize) {
        let c0 = old.cand_start[a];
        let c1 = old.cand_start[b];
        let k0 = old.kept_start[a];
        let d0 = old.drop_start[a];
        let d1 = old.drop_start[b];
        let cand_off = (self.verdicts.len() as u32).wrapping_sub(c0);
        let kept_off = (self.verdicts.len() as u32 - self.reasons.len() as u32).wrapping_sub(k0);
        let drop_off = (self.reasons.len() as u32).wrapping_sub(d0);
        self.uids.extend_from_slice(&old.uids[a..b]);
        self.verdicts
            .extend_from_slice(&old.verdicts[c0 as usize..c1 as usize]);
        self.reasons
            .extend_from_slice(&old.reasons[d0 as usize..d1 as usize]);
        for (to, from, off) in [
            (&mut self.cand_start, &old.cand_start, cand_off),
            (&mut self.kept_start, &old.kept_start, kept_off),
            (&mut self.drop_start, &old.drop_start, drop_off),
        ] {
            to.extend(from[a + 1..=b].iter().map(|v| v.wrapping_add(off)));
        }
    }

    /// Closes the current table's span.
    pub(crate) fn end_table(&mut self, uid: u64) {
        self.uids.push(uid);
        self.cand_start.push(self.verdicts.len() as u32);
        self.drop_start.push(self.reasons.len() as u32);
        self.kept_start
            .push(self.verdicts.len() as u32 - self.reasons.len() as u32);
    }
}

/// A spliceable generation handed out for one cycle: the generation and
/// its listing by reference, its rank memo moved out.
pub(crate) struct UsableGen<'a> {
    pub(crate) gen: &'a CacheGen,
    pub(crate) tables: &'a Arc<Vec<TableRef>>,
    pub(crate) memo: Option<RankMemo>,
}

/// Stored generation plus the keys it is valid under.
#[derive(Debug)]
struct StoredGen {
    epoch: u64,
    scope: ScopeStrategy,
    cursor: ChangeCursor,
    now_ms: u64,
    width: usize,
    /// The table listing the generation was computed against. Filter
    /// verdicts read descriptor fields (`compaction_enabled`,
    /// `is_intermediate`, names), and descriptor edits need not appear
    /// in the write changelog — so a splice must verify the descriptor
    /// is unchanged: `Arc::ptr_eq` when the listing was reused wholesale
    /// (the common incremental case), a per-table compare otherwise.
    tables: Arc<Vec<TableRef>>,
    gen: CacheGen,
    /// The decide phase's retained state, row-aligned with `gen`'s kept
    /// rows: set by the cycle that installed `gen`, moved out by the
    /// cycle that splices it.
    memo: Option<RankMemo>,
}

/// The cross-cycle pipeline cache (see the module docs for the validity
/// rules). Owned by [`AutoComp`](crate::pipeline::AutoComp); one
/// generation is retained at a time.
#[derive(Debug)]
pub(crate) struct CycleCache {
    enabled: bool,
    stored: Option<StoredGen>,
    last: CycleCacheStats,
}

impl CycleCache {
    pub(crate) fn new(enabled: bool) -> Self {
        CycleCache {
            enabled,
            stored: None,
            last: CycleCacheStats::default(),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.stored = None;
        }
    }

    /// Number of tables in the retained generation.
    pub(crate) fn len(&self) -> usize {
        self.stored.as_ref().map_or(0, |s| s.gen.uids.len())
    }

    pub(crate) fn stats(&self) -> CycleCacheStats {
        self.last
    }

    pub(crate) fn record_cycle(&mut self, spliced: usize, recomputed: usize) {
        self.last = CycleCacheStats {
            spliced_tables: spliced,
            recomputed_tables: recomputed,
        };
    }

    /// The retained generation, if it is spliceable under the given keys,
    /// with its rank memo moved out for the cycle.
    pub(crate) fn usable_gen(
        &mut self,
        epoch: u64,
        scope: ScopeStrategy,
        prior_cursor: Option<ChangeCursor>,
        now_ms: u64,
        time_sensitive_chain: bool,
        width: usize,
    ) -> Option<UsableGen<'_>> {
        let s = self.stored.as_mut()?;
        let valid = self.enabled
            && s.epoch == epoch
            && s.scope == scope
            && prior_cursor == Some(s.cursor)
            && s.width == width
            && (!time_sensitive_chain || s.now_ms == now_ms);
        valid.then(|| UsableGen {
            memo: s.memo.take(),
            gen: &s.gen,
            tables: &s.tables,
        })
    }

    /// Attaches the rank memo computed over the generation installed this
    /// cycle.
    pub(crate) fn set_memo(&mut self, memo: RankMemo) {
        if let Some(s) = self.stored.as_mut() {
            s.memo = Some(memo);
        }
    }

    /// Installs the next generation (without a memo), replacing the
    /// previous one.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn install(
        &mut self,
        gen: CacheGen,
        epoch: u64,
        scope: ScopeStrategy,
        cursor: ChangeCursor,
        now_ms: u64,
        width: usize,
        tables: Arc<Vec<TableRef>>,
    ) {
        self.stored = Some(StoredGen {
            epoch,
            scope,
            cursor,
            now_ms,
            width,
            tables,
            gen,
            memo: None,
        });
    }

    /// Drops the retained generation and its memo.
    pub(crate) fn clear(&mut self) {
        self.stored = None;
    }

    /// Writes the retained generation into a snapshot, then its memo, but
    /// only while the generation is live for `observation`: same epoch as
    /// the pipeline's current one, computed at the observation's cursor,
    /// and over literally its listing (`Arc::ptr_eq` — the restore
    /// reconstructs one shared listing, so a generation computed against
    /// a different listing could not be descriptor-verified after
    /// restore). A generation that fails the rule is persisted as absent,
    /// memo included — the rest of the snapshot stays warm and only
    /// filter/orient/rank go cold.
    pub(crate) fn snapshot_write(
        &self,
        enc: &mut lakesim_storage::Encoder,
        current_epoch: u64,
        observation: &FleetObservation,
    ) {
        let live = self.stored.as_ref().filter(|s| {
            s.epoch == current_epoch
                && Some(s.cursor) == observation.cursor()
                && Arc::ptr_eq(&s.tables, &observation.tables_shared())
        });
        let Some(s) = live else {
            // Neither the cache section nor the memo section.
            enc.put_bool(false);
            enc.put_bool(false);
            return;
        };
        enc.put_bool(true);
        crate::durability::put_scope(enc, s.scope);
        enc.put_u64(s.cursor.0);
        enc.put_u64(s.now_ms);
        enc.put_u64(s.width as u64);
        let gen = &s.gen;
        enc.put_u64(gen.uids.len() as u64);
        for uid in &gen.uids {
            enc.put_u64(*uid);
        }
        for arr in [&gen.cand_start, &gen.kept_start, &gen.drop_start] {
            // `len = tables + 1` with a leading 0 — re-derived on read.
            debug_assert_eq!(arr.len(), gen.uids.len() + 1);
            for v in &arr[1..] {
                enc.put_u32(*v);
            }
        }
        enc.put_u64(gen.verdicts.len() as u64);
        for v in &gen.verdicts {
            enc.put_bool(*v);
        }
        enc.put_u64(gen.rows.len() as u64);
        for row in &gen.rows {
            enc.put_f64(*row);
        }
        // Reasons are interned: the distinct strings once, then indexes,
        // so restore re-shares one `Arc<str>` per distinct reason like
        // the original fill did.
        let mut distinct: Vec<&str> = Vec::new();
        let mut index_of = std::collections::BTreeMap::new();
        for reason in &gen.reasons {
            index_of.entry(&**reason).or_insert_with(|| {
                distinct.push(reason);
                (distinct.len() - 1) as u32
            });
        }
        enc.put_u64(distinct.len() as u64);
        for reason in &distinct {
            enc.put_str(reason);
        }
        enc.put_u64(gen.reasons.len() as u64);
        for reason in &gen.reasons {
            enc.put_u32(index_of[&**reason]);
        }
        enc.put_bool(s.memo.is_some());
        if let Some(memo) = &s.memo {
            enc.put_u64(s.width as u64);
            memo.snapshot_write(enc);
        }
    }

    /// Restores the retained generation, then its memo, from a snapshot
    /// under the given keys, re-validating the generation's structural
    /// invariants (prefix-array monotonicity is re-derived, counts must
    /// reconcile) before installing it. A memo whose width differs from
    /// its generation's, or one with no generation, is read past and
    /// dropped. Returns whether the generation and the memo restored.
    pub(crate) fn snapshot_read(
        &mut self,
        dec: &mut lakesim_storage::Decoder<'_>,
        epoch: u64,
        tables: &Arc<Vec<TableRef>>,
    ) -> Result<(bool, bool), lakesim_storage::CodecError> {
        self.stored = None;
        if dec.take_bool("cache present")? {
            self.stored = Some(Self::read_gen(dec, epoch, tables)?);
        }
        if dec.take_bool("rank memo present")? {
            let width = dec.take_u64("rank memo width")? as usize;
            let memo = RankMemo::snapshot_read(dec)?;
            if let Some(s) = self.stored.as_mut().filter(|s| s.width == width) {
                s.memo = Some(memo);
            }
        }
        let memo = self.stored.as_ref().is_some_and(|s| s.memo.is_some());
        Ok((self.stored.is_some(), memo))
    }

    /// The cache section's body, validated and re-keyed to `epoch`.
    fn read_gen(
        dec: &mut lakesim_storage::Decoder<'_>,
        epoch: u64,
        tables: &Arc<Vec<TableRef>>,
    ) -> Result<StoredGen, lakesim_storage::CodecError> {
        use lakesim_storage::CodecError;
        let scope = crate::durability::take_scope(dec)?;
        let cursor = ChangeCursor(dec.take_u64("cache cursor")?);
        let now_ms = dec.take_u64("cache now_ms")?;
        let width = dec.take_u64("cache width")? as usize;
        let table_count = dec.take_len(8, "cache uids")?;
        if table_count != tables.len() {
            return Err(CodecError::Invalid("cache table count mismatch"));
        }
        let mut uids = Vec::with_capacity(table_count);
        for _ in 0..table_count {
            uids.push(dec.take_u64("cache uid")?);
        }
        let mut prefix_arrays: Vec<Vec<u32>> = Vec::with_capacity(3);
        for _ in 0..3 {
            let packed = dec.take_raw(table_count * 4, "cache prefix bytes")?;
            let mut arr = Vec::with_capacity(table_count + 1);
            arr.push(0u32);
            for word in packed.chunks_exact(4) {
                arr.push(u32::from_le_bytes(word.try_into().unwrap()));
            }
            prefix_arrays.push(arr);
        }
        let candidates = dec.take_len(1, "cache verdicts")?;
        let packed = dec.take_raw(candidates, "cache verdict bytes")?;
        let mut verdicts = Vec::with_capacity(candidates);
        for byte in packed {
            verdicts.push(match byte {
                0 => false,
                1 => true,
                _ => return Err(CodecError::Invalid("cache verdict")),
            });
        }
        let row_values = dec.take_len(8, "cache rows")?;
        let packed = dec.take_raw(row_values * 8, "cache row bytes")?;
        let mut rows = Vec::with_capacity(row_values);
        for word in packed.chunks_exact(8) {
            rows.push(f64::from_bits(u64::from_le_bytes(word.try_into().unwrap())));
        }
        let distinct_count = dec.take_len(8, "cache reason table")?;
        let mut distinct: Vec<Arc<str>> = Vec::with_capacity(distinct_count);
        for _ in 0..distinct_count {
            distinct.push(Arc::from(dec.take_str("cache reason")?));
        }
        let reason_count = dec.take_len(4, "cache reasons")?;
        let mut reasons = Vec::with_capacity(reason_count);
        for _ in 0..reason_count {
            let idx = dec.take_u32("cache reason index")? as usize;
            reasons.push(
                distinct
                    .get(idx)
                    .cloned()
                    .ok_or(CodecError::Invalid("cache reason index out of bounds"))?,
            );
        }
        let gen = CacheGen {
            uids,
            cand_start: prefix_arrays.remove(0),
            kept_start: prefix_arrays.remove(0),
            drop_start: prefix_arrays.remove(0),
            verdicts,
            rows,
            reasons,
        };
        // Structural reconciliation: spans must be monotone and add up.
        let kept_total = gen.verdicts.iter().filter(|v| **v).count();
        let dropped_total = gen.verdicts.len() - kept_total;
        let spans_ok = gen.cand_start[table_count] as usize == gen.verdicts.len()
            && gen.drop_start[table_count] as usize == dropped_total
            && gen.kept_start[table_count] as usize == kept_total
            && gen.cand_start.windows(2).all(|w| w[0] <= w[1])
            && gen.kept_start.windows(2).all(|w| w[0] <= w[1])
            && gen.drop_start.windows(2).all(|w| w[0] <= w[1])
            && gen.reasons.len() == dropped_total
            && (width == 0 || gen.rows.len() == kept_total * width)
            && (width > 0 || gen.rows.is_empty());
        if !spans_ok {
            return Err(CodecError::Invalid("cache generation spans inconsistent"));
        }
        Ok(StoredGen {
            epoch,
            scope,
            cursor,
            now_ms,
            width,
            tables: Arc::clone(tables),
            gen,
            memo: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_spans_track_prefixes() {
        let mut gen = CacheGen::with_capacity(3);
        // table 0: kept, dropped
        gen.push_kept();
        gen.push_dropped(Arc::from("f: x"));
        gen.end_table(10);
        // table 1: no candidates (Missing entry)
        gen.end_table(11);
        // table 2: dropped, kept, kept
        gen.push_dropped(Arc::from("f: y"));
        gen.push_kept();
        gen.push_kept();
        gen.end_table(12);

        assert_eq!(gen.cand_start, [0, 2, 2, 5]);
        assert_eq!(gen.kept_start, [0, 1, 1, 3]);
        assert_eq!(gen.drop_start, [0, 1, 1, 2]);
        assert_eq!(gen.verdicts, vec![true, false, false, true, true]);

        // A run copied onto a generation that already holds rows shifts
        // every prefix by that generation's counts.
        let mut next = CacheGen::with_capacity(3);
        next.push_dropped(Arc::from("f: z"));
        next.end_table(9);
        next.extend_run(&gen, 1, 3);
        assert_eq!(next.uids, [9, 11, 12]);
        assert_eq!(next.cand_start, [0, 1, 1, 4]);
        assert_eq!(next.kept_start, [0, 0, 0, 2]);
        assert_eq!(next.drop_start, [0, 1, 1, 2]);
        assert_eq!(next.verdicts, vec![false, false, true, true]);
    }

    #[test]
    fn usable_gen_checks_every_key() {
        let mut cache = CycleCache::new(true);
        let scope = ScopeStrategy::Table;
        cache.install(
            CacheGen::with_capacity(0),
            1,
            scope,
            ChangeCursor(5),
            100,
            2,
            Arc::new(Vec::new()),
        );
        let ok = |c: &mut CycleCache| {
            c.usable_gen(1, scope, Some(ChangeCursor(5)), 200, false, 2)
                .is_some()
        };
        assert!(ok(&mut cache));
        // Epoch, scope, cursor, width, and clock (time-sensitive) gates.
        assert!(cache
            .usable_gen(2, scope, Some(ChangeCursor(5)), 200, false, 2)
            .is_none());
        assert!(cache
            .usable_gen(
                1,
                ScopeStrategy::Hybrid,
                Some(ChangeCursor(5)),
                200,
                false,
                2
            )
            .is_none());
        assert!(cache
            .usable_gen(1, scope, Some(ChangeCursor(6)), 200, false, 2)
            .is_none());
        assert!(cache.usable_gen(1, scope, None, 200, false, 2).is_none());
        assert!(cache
            .usable_gen(1, scope, Some(ChangeCursor(5)), 200, false, 3)
            .is_none());
        // Time-sensitive chains splice only at the fill timestamp.
        assert!(cache
            .usable_gen(1, scope, Some(ChangeCursor(5)), 200, true, 2)
            .is_none());
        assert!(cache
            .usable_gen(1, scope, Some(ChangeCursor(5)), 100, true, 2)
            .is_some());
        // Disabling drops the generation.
        cache.set_enabled(false);
        assert!(!ok(&mut cache));
        assert_eq!(cache.len(), 0);
    }
}
