//! Candidate ranking and selection (the decide phase, §4.3).
//!
//! Two scenarios from the paper:
//!
//! * **Unconstrained resources** — a threshold decision function: any
//!   candidate whose trait exceeds the threshold is compacted.
//! * **Resource-constrained** — the MOOP formulation: min–max normalize
//!   each trait over the candidate set, scalarize with weights summing to
//!   1 (`S_c = w1·T'₁ − w2·T'₂`), rank descending, then select top-k or
//!   greedily fit a compute budget (dynamic k, §7).
//!
//! The production deployment's quota-aware weighting (§7),
//! `w1 = 0.5 × (1 + UsedQuota/TotalQuota)`, is a per-candidate weight
//! variant.
//!
//! # Columnar decide path
//!
//! Trait values arrive as a [`TraitMatrix`] — interned trait names,
//! contiguous `f64` columns — so scalarization is index arithmetic, not
//! string-keyed map probes. Selection uses partial ordering
//! (`select_nth_unstable_by` plus a sort of the selected head) instead of
//! a full fleet sort: for a fixed k a fleet-wide pass is **O(n + k log
//! k)** in the candidate count n. A maintained pass (below) reads the
//! ranked rows as a retained bitmap and the normalization bounds as
//! maintained extremes: **O(d log d + k)** in the d re-scored rows, plus
//! one O(n) rescan for a stale bound, whose move re-scores every row
//! anyway. Entries carry their candidate `index`, so later phases address
//! the matrix and the candidates directly.
//!
//! ## Ordering contract
//!
//! Entries are returned best-first for the *materialized prefix* — at
//! least every selected candidate plus the first
//! [`RANKED_PREFIX_MIN`] rows (what [`CycleReport`] renders). Entries past
//! the prefix follow in candidate order and their notes carry no exact
//! rank; [`RankedEntries`] generates them lazily where it can.
//!
//! # Maintained selection
//!
//! Ranking runs over the *ranked rows* of a slot-indexed matrix: the
//! pipeline's rows are the slots of [`crate::decide`]'s retained state
//! that survive the filter, the ledger and the NaN check. The state keeps
//! every slot's score, the bit patterns of the normalization bounds the
//! scores were computed under, and the exact rank order of a prefix
//! longer than the report head. While the policy shape and every bound
//! are bit-equal, only the rows the state names stale re-score, and
//! selection merges them into the surviving prefix; a moved bound, a
//! budget-driven policy or a starved prefix takes the fleet-wide path.
//! The conditions and the exactness argument are [`crate::decide`]'s.
//!
//! [`CycleReport`]: crate::pipeline::CycleReport

use std::fmt;
use std::sync::Arc;

use crate::candidate::{Candidate, CandidateId, ScopeKind};
use crate::error::AutoCompError;
use crate::matrix::{TraitId, TraitMatrix};
use crate::observe::Bits;
use crate::Result;

/// Number of best-first rows always materialized in exact rank order —
/// the decision-report prefix ([`CycleReport`](crate::pipeline::CycleReport)
/// renders this many rows).
pub const RANKED_PREFIX_MIN: usize = 20;

/// One weighted objective in a MOOP policy.
#[derive(Debug, Clone, PartialEq)]
pub struct TraitWeight {
    /// Trait name (must match a registered computer).
    pub trait_name: String,
    /// Weight; all weights must be positive and sum to 1.
    pub weight: f64,
}

impl TraitWeight {
    /// Convenience constructor.
    pub fn new(trait_name: impl Into<String>, weight: f64) -> Self {
        TraitWeight {
            trait_name: trait_name.into(),
            weight,
        }
    }
}

/// Ranking and selection policy.
#[derive(Debug, Clone, PartialEq)]
pub enum RankingPolicy {
    /// Unconstrained scenario (§4.3): select every candidate whose trait
    /// value meets the threshold, ranked by that value.
    Threshold {
        /// Trait to test.
        trait_name: String,
        /// Minimum value for selection.
        min_value: f64,
        /// Optional cap on selections (safety valve).
        max_k: Option<usize>,
    },
    /// Weighted-sum MOOP with top-k selection (§4.3 / §6: k=10 table
    /// scope, k=50/500 hybrid).
    Moop {
        /// Objective weights (positive, summing to 1).
        weights: Vec<TraitWeight>,
        /// Number of candidates to select.
        k: usize,
    },
    /// Weighted-sum MOOP with a compute budget instead of a fixed k: the
    /// dynamic-k selection the production deployment moved to in week 22
    /// (§7, 226 TBHr budget → k≈2500).
    BudgetedMoop {
        /// Objective weights (positive, summing to 1).
        weights: Vec<TraitWeight>,
        /// Trait holding each candidate's cost (raw, unnormalized units).
        cost_trait: String,
        /// Total budget in the cost trait's units (e.g. GBHr).
        budget: f64,
        /// Optional cap on selections.
        max_k: Option<usize>,
    },
    /// Production quota-aware weighting (§7): per-candidate
    /// `w1 = 0.5 × (1 + quota utilization)`, `w2 = 1 − w1`, scored as
    /// `w1·benefit' − w2·cost'`.
    QuotaAwareMoop {
        /// Benefit trait name.
        benefit_trait: String,
        /// Cost trait name.
        cost_trait: String,
        /// Fixed k (`None` = select by `budget`).
        k: Option<usize>,
        /// Budget in raw cost units (used when `k` is `None`).
        budget: Option<f64>,
    },
}

/// Why the decide phase did (not) select a candidate — rendered lazily on
/// [`Display`](fmt::Display), so unselected fleet-tail candidates cost no formatting or
/// allocation (NFR2 explainability without O(n) `format!` calls).
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionNote {
    /// No decision recorded (entries outside any policy run).
    None,
    /// Threshold met and selected.
    ThresholdMet {
        /// Tested trait.
        trait_name: Arc<str>,
        /// Observed value.
        value: f64,
        /// Selection threshold.
        min_value: f64,
    },
    /// Below the selection threshold.
    ThresholdBelow {
        /// Tested trait.
        trait_name: Arc<str>,
        /// Observed value.
        value: f64,
        /// Selection threshold.
        min_value: f64,
    },
    /// Above threshold but dropped by the `max_k` safety cap. (The seed
    /// mislabeled these with the below-threshold note.)
    ThresholdOverCap {
        /// Tested trait.
        trait_name: Arc<str>,
        /// Observed value.
        value: f64,
        /// Selection threshold.
        min_value: f64,
        /// The cap that excluded the candidate.
        cap: usize,
    },
    /// Ranked within the top-k.
    RankWithinK {
        /// 1-based rank.
        rank: usize,
        /// Selection size.
        k: usize,
    },
    /// Ranked beyond the top-k (exact rank known: prefix row).
    RankBeyondK {
        /// 1-based rank.
        rank: usize,
        /// Selection size.
        k: usize,
    },
    /// Beyond both the top-k and the materialized prefix; exact rank not
    /// computed (the whole point of partial selection).
    BeyondPrefix {
        /// Selection size.
        k: usize,
    },
    /// Selected under a compute budget; `spent` is the running total
    /// after this selection.
    FitsBudget {
        /// Budget consumed so far.
        spent: f64,
        /// Total budget.
        budget: f64,
    },
    /// Not selected: would overshoot the budget.
    OverBudget {
        /// This candidate's cost.
        cost: f64,
        /// Budget consumed when the candidate was considered.
        spent: f64,
        /// Total budget.
        budget: f64,
    },
    /// Not selected under a quota-aware budget (§7 reports no figures).
    OverBudgetBare,
    /// Quota-aware rank (exact rank known: prefix row).
    QuotaRank {
        /// 1-based rank.
        rank: usize,
    },
    /// Quota-aware, beyond the materialized prefix.
    QuotaBeyondPrefix,
    /// Dropped during orient because a trait computer produced NaN.
    NanTrait {
        /// The offending trait.
        trait_name: Arc<str>,
    },
}

impl fmt::Display for DecisionNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionNote::None => Ok(()),
            DecisionNote::ThresholdMet {
                trait_name,
                value,
                min_value,
            } => write!(f, "{trait_name} {value:.3} >= {min_value:.3}"),
            DecisionNote::ThresholdBelow {
                trait_name,
                value,
                min_value,
            } => write!(f, "{trait_name} {value:.3} < {min_value:.3}"),
            DecisionNote::ThresholdOverCap {
                trait_name,
                value,
                min_value,
                cap,
            } => write!(
                f,
                "{trait_name} {value:.3} >= {min_value:.3} but over cap k={cap}"
            ),
            DecisionNote::RankWithinK { rank, k } => write!(f, "rank {rank} <= k={k}"),
            DecisionNote::RankBeyondK { rank, k } => write!(f, "rank {rank} > k={k}"),
            DecisionNote::BeyondPrefix { k } => write!(f, "rank > k={k}"),
            DecisionNote::FitsBudget { spent, budget } => {
                write!(f, "fits budget ({spent:.2}/{budget:.2})")
            }
            DecisionNote::OverBudget {
                cost,
                spent,
                budget,
            } => write!(
                f,
                "over budget (cost {cost:.2}, spent {spent:.2}/{budget:.2})"
            ),
            DecisionNote::OverBudgetBare => write!(f, "over budget"),
            DecisionNote::QuotaRank { rank } => write!(f, "quota-aware rank {rank}"),
            DecisionNote::QuotaBeyondPrefix => write!(f, "quota-aware rank > prefix"),
            DecisionNote::NanTrait { trait_name } => {
                write!(f, "orient: trait '{trait_name}' is NaN")
            }
        }
    }
}

/// Decide-phase access to the per-candidate inputs that are *not* trait
/// values: identity (rank tie-breaks and report ids) and the §7 quota
/// signal. Implemented by `[Candidate]` for callers that hold
/// materialized candidates, and by the pipeline's observation-backed
/// source so the hot cycle ranks straight off a
/// [`FleetObservation`](crate::observe::FleetObservation) without ever
/// building `Candidate` structs.
pub trait RankSource {
    /// Identity of the candidate at `index`, materialized for a
    /// [`RankedEntry`]. Called once per returned entry.
    fn id(&self, index: usize) -> CandidateId;

    /// Orders two candidates by identity (the rank tie-break). Must agree
    /// with `self.id(a).cmp(&self.id(b))`; sources that can compare
    /// without materializing ids (e.g. observation-backed ones borrowing
    /// partition labels) avoid per-comparison clones in the selection
    /// hot path.
    fn cmp_ids(&self, a: usize, b: usize) -> std::cmp::Ordering;

    /// Quota utilization of the candidate's database (0.0 when the
    /// platform reports none) — the §7 quota-aware weighting input.
    fn quota_utilization(&self, index: usize) -> f64;

    /// Uniform tail identity: when every candidate is a
    /// single-candidate-scope row (same [`ScopeKind`], no partition
    /// labels), returns the scope plus per-row table uids so the report
    /// tail can be generated lazily on iteration instead of
    /// materializing one [`RankedEntry`] per fleet candidate. `None`
    /// (the default) keeps the fully materialized output.
    fn tail_identity(&self) -> Option<(ScopeKind, Arc<[u64]>)> {
        None
    }
}

impl RankSource for [Candidate] {
    fn id(&self, index: usize) -> CandidateId {
        self[index].id.clone()
    }
    fn cmp_ids(&self, a: usize, b: usize) -> std::cmp::Ordering {
        self[a].id.cmp(&self[b].id)
    }
    fn quota_utilization(&self, index: usize) -> f64 {
        self[index]
            .stats
            .quota
            .map(|q| q.utilization())
            .unwrap_or(0.0)
    }
}

/// One ranked candidate with its decision trail (NFR2 explainability).
///
/// Entries are columnar-friendly: they carry the candidate's `index`
/// instead of cloned trait maps, and the `note` is a lazy
/// [`DecisionNote`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankedEntry {
    /// Candidate identity.
    pub id: CandidateId,
    /// The candidate's position in the ranked input: its index in the
    /// candidate slice [`rank_and_select`] was given, or its slot (listing
    /// order) in a [`CycleReport`](crate::pipeline::CycleReport).
    pub index: usize,
    /// Scalarized score (or raw trait value for threshold policies).
    pub score: f64,
    /// Whether the decide phase selected this candidate.
    pub selected: bool,
    /// Why it was (not) selected; rendered on [`Display`](fmt::Display).
    pub note: DecisionNote,
}

/// Note shape of tail entries — everything needed to produce a tail
/// row's note from its score, whether the tail is materialized or lazy.
#[derive(Debug, Clone)]
enum TailNoteSpec {
    /// MOOP top-k tail: [`DecisionNote::BeyondPrefix`].
    Moop { k: usize },
    /// Quota-aware top-k tail: [`DecisionNote::QuotaBeyondPrefix`].
    Quota,
    /// Threshold tail: below-threshold or over-cap, decided per row from
    /// the stored score (the raw trait value).
    Threshold {
        trait_name: Arc<str>,
        min_value: f64,
        cap: usize,
    },
}

/// Deferred tail of a decide-phase output: the ranked rows and per-row
/// scores and table uids in compact columnar form; [`RankedEntry`]
/// values are generated on iteration, in row order. The ranked set and
/// the score column are the decide state's own, which copies them before
/// writing only while this tail still holds them.
#[derive(Debug, Clone)]
struct LazyTail {
    /// Every ranked row, head rows included.
    ranked: Arc<Bits>,
    /// The head's rows, sorted: skipped on iteration.
    in_head: Vec<u32>,
    /// Score per row index.
    scores: Arc<[f64]>,
    /// Table uid per row index.
    uids: Arc<[u64]>,
    /// Uniform candidate scope (single-candidate scopes only).
    scope: ScopeKind,
    note: TailNoteSpec,
}

impl TailNoteSpec {
    /// The note of a tail row scored `score`.
    fn note(&self, score: f64) -> DecisionNote {
        match self {
            TailNoteSpec::Moop { k } => DecisionNote::BeyondPrefix { k: *k },
            TailNoteSpec::Quota => DecisionNote::QuotaBeyondPrefix,
            TailNoteSpec::Threshold {
                trait_name,
                min_value,
                cap,
            } => {
                if score >= *min_value {
                    DecisionNote::ThresholdOverCap {
                        trait_name: trait_name.clone(),
                        value: score,
                        min_value: *min_value,
                        cap: *cap,
                    }
                } else {
                    DecisionNote::ThresholdBelow {
                        trait_name: trait_name.clone(),
                        value: score,
                        min_value: *min_value,
                    }
                }
            }
        }
    }
}

impl LazyTail {
    fn entry(&self, index: usize) -> RankedEntry {
        let score = self.scores[index];
        RankedEntry {
            id: CandidateId {
                table_uid: self.uids[index],
                scope: self.scope,
                partition: None,
            },
            index,
            score,
            selected: false,
            note: self.note.note(score),
        }
    }
}

/// The decide phase's output: the materialized rank-order prefix (every
/// selected candidate plus at least [`RANKED_PREFIX_MIN`] report rows)
/// plus a tail covering the rest of the fleet in candidate order.
///
/// On single-candidate-scope paths the tail is **lazy**: entries are
/// generated on [`iter`](Self::iter)/[`to_vec`](Self::to_vec) from the
/// decide state's shared columns, bit-identical to the eager path.
#[derive(Debug, Clone)]
pub struct RankedEntries {
    /// Eager entries: the full rank-order prefix — and, when `tail` is
    /// `None`, the entire output (budget policies, partition scopes, and
    /// the compat `&[Candidate]` path stay fully materialized).
    head: Vec<RankedEntry>,
    tail: Option<LazyTail>,
}

impl RankedEntries {
    /// Fully materialized entries (no lazy tail).
    pub(crate) fn eager(entries: Vec<RankedEntry>) -> Self {
        RankedEntries {
            head: entries,
            tail: None,
        }
    }

    /// Total number of ranked candidates (head + tail).
    pub fn len(&self) -> usize {
        self.tail
            .as_ref()
            .map_or(self.head.len(), |tail| tail.ranked.count())
    }

    /// Whether no candidates were ranked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The eagerly materialized prefix, best-first in exact rank order:
    /// every selected candidate plus at least [`RANKED_PREFIX_MIN`] rows
    /// (the whole output when no lazy tail exists). This is what
    /// `CycleReport` renders, so report output is identical whether or
    /// not the tail is lazy.
    pub fn head(&self) -> &[RankedEntry] {
        &self.head
    }

    /// Selected entries (always part of the head).
    pub fn selected(&self) -> impl Iterator<Item = &RankedEntry> {
        self.head.iter().filter(|e| e.selected)
    }

    /// Number of selected candidates.
    pub fn selected_count(&self) -> usize {
        self.selected().count()
    }

    /// Iterates every ranked entry: the head in rank order, then tail
    /// entries generated on the fly in row order — exactly the sequence
    /// the eager path materializes.
    pub fn iter(&self) -> impl Iterator<Item = RankedEntry> + '_ {
        let tail = self.tail.iter().flat_map(|tail| {
            let rows = tail.ranked.ones();
            let rows = rows.filter(|r| tail.in_head.binary_search(r).is_err());
            rows.map(|r| tail.entry(r as usize))
        });
        self.head.iter().cloned().chain(tail)
    }

    /// Materializes every entry eagerly (the compatibility accessor).
    pub fn to_vec(&self) -> Vec<RankedEntry> {
        self.iter().collect()
    }

    /// Consuming variant of [`to_vec`](Self::to_vec): already-eager
    /// outputs move their entries instead of cloning them.
    pub fn into_vec(self) -> Vec<RankedEntry> {
        match self.tail {
            None => self.head,
            Some(_) => self.to_vec(),
        }
    }
}

/// Min–max normalizes `values`; constant inputs map to 0.5 (§4.3's
/// normalization, with the degenerate case pinned deterministically).
pub fn min_max_normalize(values: &[f64]) -> Vec<f64> {
    let (min, max) = min_max(values.iter().copied());
    values
        .iter()
        .map(|v| normalize(*v, min, max - min))
        .collect()
}

/// The §4.3 min–max rule for one value given its column's min and span:
/// constant columns (span below epsilon) pin to 0.5. Single source of
/// truth for every scalarization site in this module.
#[inline]
fn normalize(v: f64, min: f64, span: f64) -> f64 {
    if span.abs() < f64::EPSILON {
        0.5
    } else {
        (v - min) / span
    }
}

/// Min and max of `values`, each folded in order (±∞ when empty). One
/// pass: the two folds are independent chains.
fn min_max(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let start = (f64::INFINITY, f64::NEG_INFINITY);
    values.fold(start, |(min, max), v| (min.min(v), max.max(v)))
}

/// Min and max of `col` over the ranked `rows`, folded in row order.
pub(crate) fn column_min_max(col: &[f64], rows: impl Iterator<Item = u32>) -> (f64, f64) {
    min_max(rows.map(|r| col[r as usize]))
}

/// One end of a column's in-order fold over the ranked rows: its bits,
/// the ranked rows holding exactly them, and whether zeros of both signs
/// hold it (the fold's result then depends on their order).
#[derive(Debug, Clone, Copy)]
struct Extreme(u64, u32, bool);

impl Extreme {
    /// Counts `v` in (`enter`) or out of the ranked rows, `beyond` this
    /// end or not; `false` once only a rescan can tell the fold.
    #[inline]
    fn step(&mut self, v: f64, enter: bool, beyond: bool) -> bool {
        let Extreme(bits, holders, mixed) = self;
        if v.to_bits() == *bits {
            *holders = if enter { *holders + 1 } else { *holders - 1 };
            return *holders > 0 && !*mixed;
        }
        let other_zero = v == f64::from_bits(*bits);
        if enter && beyond {
            *self = Extreme(v.to_bits(), 1, false);
        }
        self.2 |= other_zero;
        !other_zero
    }
}

/// Steps both ends of a column; `false` once either needs a rescan.
#[inline]
fn step_ends([lo, hi]: &mut [Extreme; 2], v: f64, enter: bool) -> bool {
    let (below, above) = (v < f64::from_bits(lo.0), v > f64::from_bits(hi.0));
    lo.step(v, enter, below) & hi.step(v, enter, above)
}

/// Per trait column, the min and max over the ranked rows, bit-equal to
/// [`column_min_max`]'s fold and maintained as ranked values come and go;
/// `None` while stale (the rescan rule is [`crate::decide`]'s).
#[derive(Debug, Clone)]
pub(crate) struct Bounds(Vec<Option<[Extreme; 2]>>);

impl Bounds {
    pub(crate) fn stale(width: usize) -> Self {
        Bounds(vec![None; width])
    }

    /// Counts `v` into (`enter`) or out of column `id`'s ranked values.
    pub(crate) fn step(&mut self, id: TraitId, v: f64, enter: bool) {
        let column = &mut self.0[id.index()];
        if column
            .as_mut()
            .is_some_and(|ends| !step_ends(ends, v, enter))
        {
            *column = None;
        }
    }

    /// Column `id`'s min and max over `ranked`, whose values `col` holds.
    /// A rescan counts every value in, and takes the fold's word only for
    /// an end that zeros of both signs hold.
    pub(crate) fn get(&mut self, id: TraitId, col: &[f64], ranked: &Bits) -> (f64, f64) {
        let [lo, hi] = *self.0[id.index()].get_or_insert_with(|| {
            let mut ends =
                [f64::INFINITY, f64::NEG_INFINITY].map(|e| Extreme(e.to_bits(), 0, false));
            ranked
                .ones()
                .for_each(|r| _ = step_ends(&mut ends, col[r as usize], true));
            if ends.iter().any(|end| end.2) {
                let (min, max) = column_min_max(col, ranked.ones());
                (ends[0].0, ends[1].0) = (min.to_bits(), max.to_bits());
            }
            ends
        });
        (f64::from_bits(lo.0), f64::from_bits(hi.0))
    }
}

fn validate_weights(weights: &[TraitWeight]) -> Result<()> {
    if weights.is_empty() {
        return Err(AutoCompError::InvalidWeights("no weights given".into()));
    }
    let sum: f64 = weights.iter().map(|w| w.weight).sum();
    if weights.iter().any(|w| w.weight <= 0.0) {
        return Err(AutoCompError::InvalidWeights(
            "weights must be positive".into(),
        ));
    }
    if (sum - 1.0).abs() > 1e-6 {
        return Err(AutoCompError::InvalidWeights(format!(
            "weights sum to {sum}, expected 1"
        )));
    }
    Ok(())
}

/// Sort key mapping that keeps ordering total and seed-compatible:
/// NaN ranks last on a descending sort, and ±0.0 compare equal so ties
/// still break on candidate id (like the seed's `partial_cmp`).
#[inline]
fn sort_key(score: f64) -> f64 {
    if score.is_nan() {
        f64::NEG_INFINITY
    } else if score == 0.0 {
        0.0
    } else {
        score
    }
}

/// Lazily materializes the rank order of the ranked rows (score
/// descending, ties by candidate id): `ensure(upto)` extends the sorted
/// prefix by partial selection — `select_nth_unstable_by` to split off
/// the next chunk, then a sort of just that chunk — with doubling chunk
/// growth, so consuming k of n rows costs O(n + k log k) instead of a
/// full O(n log n) sort.
struct RankOrder<'a, S: RankSource + ?Sized> {
    /// Row indices, the first `sorted_upto` in exact rank order.
    indices: Vec<u32>,
    sorted_upto: usize,
    /// `sort_key(score)` precomputed once per index: the selection
    /// comparator runs O(n) times per `ensure` growth and the NaN/±0
    /// normalization branches are hoisted out of it.
    keys: Vec<f64>,
    source: &'a S,
}

impl<'a, S: RankSource + ?Sized> RankOrder<'a, S> {
    fn new(scores: &[f64], rows: Vec<u32>, source: &'a S) -> Self {
        RankOrder {
            indices: rows,
            sorted_upto: 0,
            keys: scores.iter().map(|s| sort_key(*s)).collect(),
            source,
        }
    }

    /// Guarantees `indices[..upto]` is in exact rank order.
    fn ensure(&mut self, upto: usize) {
        let n = self.indices.len();
        let upto = upto.min(n);
        while self.sorted_upto < upto {
            let target = upto.max(self.sorted_upto * 2).max(64).min(n);
            let keys = &self.keys;
            let source = self.source;
            let key = |a: &u32, b: &u32| {
                keys[*b as usize]
                    .total_cmp(&keys[*a as usize])
                    .then_with(|| source.cmp_ids(*a as usize, *b as usize))
            };
            let tail = &mut self.indices[self.sorted_upto..];
            let pivot = target - self.sorted_upto;
            if pivot < tail.len() {
                tail.select_nth_unstable_by(pivot, key);
            }
            self.indices[self.sorted_upto..target].sort_unstable_by(key);
            self.sorted_upto = target;
        }
    }

    #[inline]
    fn at(&self, pos: usize) -> usize {
        self.indices[pos] as usize
    }

    fn len(&self) -> usize {
        self.indices.len()
    }
}

/// Ranks candidates under `policy` given their columnar trait matrix.
/// Returns entries best-first for the materialized prefix (all selected
/// candidates plus at least [`RANKED_PREFIX_MIN`] rows), then remaining
/// candidates in candidate order; selection flags and notes record the
/// decision trail.
pub fn rank_and_select(
    candidates: &[Candidate],
    matrix: &TraitMatrix,
    policy: &RankingPolicy,
) -> Result<Vec<RankedEntry>> {
    let ranked: Bits = candidates.iter().map(|_| true).collect();
    let slots = Slots {
        ranked: &Arc::new(ranked),
        fresh: &[],
        scores: &mut vec![0.0; candidates.len()].into(),
        selection: &mut Selection::default(),
        bounds: &mut Bounds::stale(matrix.width()),
    };
    rank_slots(candidates, matrix, policy, slots).map(|(entries, _)| entries.into_vec())
}

/// What selection keeps between cycles: the policy shape, the bit
/// patterns of the normalization bounds its scores were computed under
/// (per consumed column, in policy consumption order), and the exact
/// rank order of a prefix larger than the report head, so a few
/// re-scored rows per cycle cannot force a fleet-wide re-sort at once.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Selection {
    /// Policy-shape discriminant; 0 when nothing is retained.
    kind: u8,
    bounds: Vec<(u64, u64)>,
    prefix: Vec<u32>,
}

impl Selection {
    /// Whether a selection is retained for the next cycle to maintain.
    pub(crate) fn is_retained(&self) -> bool {
        self.kind != 0
    }

    /// Renumbers the prefix after slots moved; a slot that did not move
    /// leaves the prefix.
    pub(crate) fn remap(&mut self, slot: impl Fn(&u32) -> Option<u32>) {
        self.prefix = self.prefix.iter().filter_map(slot).collect();
    }

    pub(crate) fn snapshot_write(&self, enc: &mut lakesim_storage::Encoder) {
        enc.put_u8(self.kind);
        enc.put_u64(self.bounds.len() as u64);
        for (lo, hi) in &self.bounds {
            enc.put_u64(*lo);
            enc.put_u64(*hi);
        }
        enc.put_u64(self.prefix.len() as u64);
        for slot in &self.prefix {
            enc.put_u32(*slot);
        }
    }

    /// Reads a selection whose prefix must address one of `slots` slots.
    pub(crate) fn snapshot_read(
        dec: &mut lakesim_storage::Decoder<'_>,
        slots: usize,
    ) -> std::result::Result<Self, lakesim_storage::CodecError> {
        use lakesim_storage::CodecError;
        let kind = dec.take_u8("selection kind")?;
        if kind > 3 {
            return Err(CodecError::Invalid("selection kind"));
        }
        let bounds = (0..dec.take_len(16, "selection bounds")?)
            .map(|_| Ok((dec.take_u64("bound min")?, dec.take_u64("bound span")?)))
            .collect::<std::result::Result<Vec<_>, CodecError>>()?;
        let prefix = (0..dec.take_len(4, "selection prefix")?)
            .map(|_| match dec.take_u32("selection prefix slot")? {
                slot if (slot as usize) < slots => Ok(slot),
                _ => Err(CodecError::Invalid("selection prefix slot out of bounds")),
            })
            .collect::<std::result::Result<Vec<_>, CodecError>>()?;
        Ok(Selection {
            kind,
            bounds,
            prefix,
        })
    }
}

/// One cycle's ranked rows plus the per-row state ranking keeps.
pub(crate) struct Slots<'a> {
    /// Rows that rank this cycle; a lazy report tail shares them.
    pub(crate) ranked: &'a Arc<Bits>,
    /// Ranked rows whose retained score is stale, ascending.
    pub(crate) fresh: &'a [u32],
    /// Score per row index, kept for the next cycle and shared with the
    /// report's lazy tail.
    pub(crate) scores: &'a mut Arc<[f64]>,
    /// The selection kept for the next cycle.
    pub(crate) selection: &'a mut Selection,
    /// Normalization bounds of every trait column over `ranked`.
    pub(crate) bounds: &'a mut Bounds,
}

/// Splice effectiveness of one rank pass (see
/// [`AutoComp::rank_memo_stats`](crate::pipeline::AutoComp::rank_memo_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankCycleStats {
    /// Whether top-k selection was maintained from the retained prefix
    /// (no fleet-wide ordering pass ran).
    pub memo_fast: bool,
    /// Rows whose retained score was reused.
    pub spliced_scores: usize,
    /// Rows whose score was recomputed (patched rows and rows back from
    /// the ledger, or every row on the fleet-wide path).
    pub recomputed_scores: usize,
}

/// One pre-resolved weighted column of a MOOP scalarization.
struct WeightedCol<'a> {
    col: &'a [f64],
    min: f64,
    span: f64,
    /// `sign × weight`, folded once.
    factor: f64,
}

/// The decide phase over the ranked rows of `source`: while the policy shape
/// and every normalization bound are bit-equal to the kept selection's,
/// only `fresh` rows re-score and selection merges them into the kept
/// prefix's survivors (the exactness argument is in [`crate::decide`]);
/// otherwise every row re-scores and the fleet-wide partial selection
/// runs. Either way `scores` and `selection` are left describing this
/// pass.
pub(crate) fn rank_slots<S: RankSource + ?Sized>(
    source: &S,
    matrix: &TraitMatrix,
    policy: &RankingPolicy,
    mut slots: Slots<'_>,
) -> Result<(RankedEntries, RankCycleStats)> {
    let ranked = slots.ranked;
    let n = ranked.count();
    if n == 0 {
        *slots.selection = Selection::default();
        return Ok((RankedEntries::eager(Vec::new()), RankCycleStats::default()));
    }
    match policy {
        RankingPolicy::Threshold {
            trait_name,
            min_value,
            max_k,
        } => {
            let id = matrix
                .trait_id(trait_name)
                .ok_or_else(|| AutoCompError::UnknownTrait(trait_name.clone()))?;
            let col = matrix.col(id);
            let name: Arc<str> = Arc::from(trait_name.as_str());
            let cap = max_k.unwrap_or(usize::MAX);
            let min_value = *min_value;
            let above = ranked.ones().filter(|r| col[*r as usize] >= min_value);
            let above = above.count();
            let sel = above.min(cap);
            let tail = TailNoteSpec::Threshold {
                trait_name: name.clone(),
                min_value,
                cap,
            };
            Ok(rank_maintained(
                source,
                slots,
                (1, Vec::new()),
                sel,
                |i| col[i],
                |pos, index, scores| {
                    let value = scores[index];
                    if pos < sel && value >= min_value {
                        let met = DecisionNote::ThresholdMet {
                            trait_name: name.clone(),
                            value,
                            min_value,
                        };
                        (true, met)
                    } else {
                        (false, tail.note(value))
                    }
                },
                tail.clone(),
            ))
        }
        RankingPolicy::Moop { weights, k } => {
            validate_weights(weights)?;
            // Key on (min, span) bits — exactly the two values
            // `normalize` consumes, so bit-equal keys imply bit-equal
            // normalization.
            let parts = weighted_parts(matrix, weights, &mut slots)?;
            let bounds = parts
                .iter()
                .map(|p| (p.min.to_bits(), p.span.to_bits()))
                .collect();
            let k = *k;
            Ok(rank_maintained(
                source,
                slots,
                (2, bounds),
                k.min(n),
                |i| weighted_row(&parts, i),
                |pos, _, _| {
                    let rank = pos + 1;
                    if pos < k {
                        (true, DecisionNote::RankWithinK { rank, k })
                    } else {
                        (false, DecisionNote::RankBeyondK { rank, k })
                    }
                },
                TailNoteSpec::Moop { k },
            ))
        }
        RankingPolicy::BudgetedMoop {
            weights,
            cost_trait,
            budget,
            max_k,
        } => {
            validate_weights(weights)?;
            let cost_id = matrix
                .trait_id(cost_trait)
                .ok_or_else(|| AutoCompError::UnknownTrait(cost_trait.clone()))?;
            let parts = weighted_parts(matrix, weights, &mut slots)?;
            let cap = max_k.unwrap_or(usize::MAX);
            let costs = matrix.col(cost_id);
            let score = |i| weighted_row(&parts, i);
            Ok(rank_budgeted(
                source,
                slots,
                score,
                costs,
                *budget,
                cap,
                BudgetNotes::Detailed,
            ))
        }
        RankingPolicy::QuotaAwareMoop {
            benefit_trait,
            cost_trait,
            k,
            budget,
        } => {
            let benefit_id = matrix
                .trait_id(benefit_trait)
                .ok_or_else(|| AutoCompError::UnknownTrait(benefit_trait.clone()))?;
            let cost_id = matrix
                .trait_id(cost_trait)
                .ok_or_else(|| AutoCompError::UnknownTrait(cost_trait.clone()))?;
            let benefit_col = matrix.col(benefit_id);
            let cost_col = matrix.col(cost_id);
            let (bmin, bmax) = slots.bounds.get(benefit_id, benefit_col, ranked);
            let (cmin, cmax) = slots.bounds.get(cost_id, cost_col, ranked);
            let bspan = bmax - bmin;
            let cspan = cmax - cmin;
            let quota_row = |i: usize| {
                let util = source.quota_utilization(i);
                // §7: w1 = 0.5 × (1 + Used/Total). Clamp so w2 ≥ 0 even
                // for over-quota databases.
                let w1 = (0.5 * (1.0 + util)).min(1.0);
                let w2 = 1.0 - w1;
                w1 * normalize(benefit_col[i], bmin, bspan)
                    - w2 * normalize(cost_col[i], cmin, cspan)
            };
            match (k, budget) {
                (Some(k), _) => {
                    let k = *k;
                    let bounds = vec![
                        (bmin.to_bits(), bspan.to_bits()),
                        (cmin.to_bits(), cspan.to_bits()),
                    ];
                    Ok(rank_maintained(
                        source,
                        slots,
                        (3, bounds),
                        k.min(n),
                        quota_row,
                        |pos, _, _| (pos < k, DecisionNote::QuotaRank { rank: pos + 1 }),
                        TailNoteSpec::Quota,
                    ))
                }
                (None, Some(budget)) => Ok(rank_budgeted(
                    source,
                    slots,
                    quota_row,
                    cost_col,
                    *budget,
                    usize::MAX,
                    BudgetNotes::Bare,
                )),
                (None, None) => Err(AutoCompError::InvalidConfig(
                    "QuotaAwareMoop needs k or budget".into(),
                )),
            }
        }
    }
}

/// Resolves MOOP weights to their columns, normalization bounds over the
/// ranked rows, and folded factors.
fn weighted_parts<'a>(
    matrix: &'a TraitMatrix,
    weights: &[TraitWeight],
    slots: &mut Slots<'_>,
) -> Result<Vec<WeightedCol<'a>>> {
    weights
        .iter()
        .map(|w| {
            let id = matrix
                .trait_id(&w.trait_name)
                .ok_or_else(|| AutoCompError::UnknownTrait(w.trait_name.clone()))?;
            let direction = matrix
                .direction(id)
                .ok_or_else(|| AutoCompError::UnknownTrait(w.trait_name.clone()))?;
            let col = matrix.col(id);
            let (min, max) = slots.bounds.get(id, col, slots.ranked);
            let sign = match direction {
                crate::traits::TraitDirection::Benefit => 1.0,
                crate::traits::TraitDirection::Cost => -1.0,
            };
            Ok(WeightedCol {
                col,
                min,
                span: max - min,
                factor: sign * w.weight,
            })
        })
        .collect()
}

/// One row's weighted-sum score: the normalized values accumulated in
/// weight order.
fn weighted_row(parts: &[WeightedCol<'_>], i: usize) -> f64 {
    let mut score = 0.0;
    for part in parts {
        score += part.factor * normalize(part.col[i], part.min, part.span);
    }
    score
}

/// The budget-driven policies: every row re-scores and the greedy walk
/// runs over the whole fleet; no selection is kept for the next cycle.
fn rank_budgeted<S: RankSource + ?Sized>(
    source: &S,
    slots: Slots<'_>,
    score_row: impl Fn(usize) -> f64,
    costs: &[f64],
    budget: f64,
    cap: usize,
    notes: BudgetNotes,
) -> (RankedEntries, RankCycleStats) {
    let Slots {
        ranked,
        scores,
        selection,
        ..
    } = slots;
    let rows: Vec<u32> = ranked.ones().collect();
    let written = Arc::make_mut(scores);
    for r in &rows {
        written[*r as usize] = score_row(*r as usize);
    }
    *selection = Selection::default();
    let stats = RankCycleStats {
        memo_fast: false,
        spliced_scores: 0,
        recomputed_scores: rows.len(),
    };
    let entries = budget_scan(source, scores, costs, &rows, budget, cap, notes);
    (RankedEntries::eager(entries), stats)
}

/// Shared core of the maintained policies (threshold, MOOP top-k,
/// quota-aware top-k): score, select, and assemble the head plus the
/// (lazy) tail. `shape` is the policy discriminant and the bound bits
/// its scores are computed under; `sel` the selection size.
#[allow(clippy::too_many_arguments)]
fn rank_maintained<S: RankSource + ?Sized>(
    source: &S,
    slots: Slots<'_>,
    shape: (u8, Vec<(u64, u64)>),
    sel: usize,
    score_row: impl Fn(usize) -> f64,
    prefix_entry: impl Fn(usize, usize, &[f64]) -> (bool, DecisionNote),
    tail_spec: TailNoteSpec,
) -> (RankedEntries, RankCycleStats) {
    let Slots {
        ranked,
        fresh,
        scores,
        selection,
        ..
    } = slots;
    let (kind, bounds) = shape;
    let n = ranked.count();
    let needed = sel.max(RANKED_PREFIX_MIN).min(n);
    // Retained-prefix size: enough slack that the expected re-scored set
    // cannot knock the surviving membership below `needed` every cycle.
    let target = needed.saturating_add(needed.max(64)).min(n);

    // Kept scores hold only under the same policy shape and bit-equal
    // bounds: scores are then pure per-row functions of unchanged inputs.
    let kept = selection.kind == kind && selection.bounds == bounds;
    let (written, mut rescored) = (Arc::make_mut(scores), 0);
    let mut rescore = |r: u32| {
        written[r as usize] = score_row(r as usize);
        rescored += 1;
    };
    match kept {
        true => fresh.iter().for_each(|r| rescore(*r)),
        false => ranked.ones().for_each(rescore),
    }
    let mut stats = RankCycleStats {
        memo_fast: false,
        spliced_scores: n - rescored,
        recomputed_scores: rescored,
    };
    let scores = &*scores;

    // Rank comparator: score descending (NaN last, ±0 tied), ties by
    // candidate id — identical to `RankOrder`'s.
    let order_of = |a: &u32, b: &u32| {
        sort_key(scores[*b as usize])
            .total_cmp(&sort_key(scores[*a as usize]))
            .then_with(|| source.cmp_ids(*a as usize, *b as usize))
    };
    let stable: Vec<u32> = match kept {
        true => selection
            .prefix
            .iter()
            .copied()
            .filter(|s| ranked.contains(*s) && fresh.binary_search(s).is_err())
            .collect(),
        false => Vec::new(),
    };
    let order = if kept && needed <= stable.len() {
        // Maintained: merge the re-scored rows into the survivors.
        stats.memo_fast = true;
        let mut fresh = fresh.to_vec();
        fresh.sort_unstable_by(order_of);
        let take = target.min(stable.len());
        let (mut stable, mut fresh) = (stable.iter().peekable(), fresh.iter().peekable());
        let mut merged = Vec::with_capacity(take);
        while merged.len() < take {
            let from_fresh = match (stable.peek(), fresh.peek()) {
                (Some(s), Some(f)) => order_of(f, s) == std::cmp::Ordering::Less,
                (stable_left, _) => stable_left.is_none(),
            };
            let next = if from_fresh {
                fresh.next()
            } else {
                stable.next()
            };
            merged.push(*next.expect("take ≤ survivors"));
        }
        merged
    } else {
        let mut order = RankOrder::new(scores, ranked.ones().collect(), source);
        order.ensure(target);
        order.indices.truncate(target);
        order.indices
    };

    // Head: exactly `needed` rank-ordered rows (the rows beyond feed the
    // next cycle's prefix only).
    let head: Vec<RankedEntry> = order[..needed]
        .iter()
        .enumerate()
        .map(|(pos, row)| {
            let index = *row as usize;
            let (selected, note) = prefix_entry(pos, index, scores);
            RankedEntry {
                id: source.id(index),
                index,
                score: scores[index],
                selected,
                note,
            }
        })
        .collect();
    let mut in_head = order[..needed].to_vec();
    in_head.sort_unstable();
    let entries = match source.tail_identity() {
        Some((scope, uids)) => RankedEntries {
            head,
            tail: Some(LazyTail {
                ranked: Arc::clone(ranked),
                in_head,
                scores: Arc::clone(scores),
                uids,
                scope,
                note: tail_spec,
            }),
        },
        None => {
            let mut all = head;
            let tail = ranked.ones().filter(|r| in_head.binary_search(r).is_err());
            all.extend(tail.map(|r| r as usize).map(|index| RankedEntry {
                id: source.id(index),
                index,
                score: scores[index],
                selected: false,
                note: tail_spec.note(scores[index]),
            }));
            RankedEntries::eager(all)
        }
    };
    *selection = Selection {
        kind,
        bounds,
        prefix: order,
    };
    (entries, stats)
}

/// Which note flavor a budget scan writes for unselected candidates: the
/// BudgetedMoop policy reports figures, the quota-aware §7 variant does
/// not (seed behavior preserved for both).
#[derive(Clone, Copy)]
enum BudgetNotes {
    Detailed,
    Bare,
}

/// Tracks the minimum cost over the candidates the budget scan has not
/// yet walked: a suffix min over the lazily sorted region plus a running
/// min over the still-unsorted tail. Unlike a global min (the previous
/// early-out bound), consumed candidates drop out of the bound — so once
/// the cheapest *remaining* candidate cannot fit, the scan stops instead
/// of walking (and rank-ordering) the rest of the fleet.
struct RemainingMinCost {
    /// `sorted_suffix_min[pos]` = min cost over sorted positions ≥ `pos`.
    sorted_suffix_min: Vec<f64>,
    /// Min cost over the unsorted tail (`+∞` when empty or all-NaN; the
    /// NaN-ignoring `f64::min` keeps NaN costs from poisoning the bound).
    tail_min: f64,
}

impl RemainingMinCost {
    /// Starts with an empty sorted region: the tail is every ranked row.
    fn new(costs: &[f64], rows: &[u32]) -> Self {
        RemainingMinCost {
            sorted_suffix_min: Vec::new(),
            tail_min: column_min_max(costs, rows.iter().copied()).0,
        }
    }

    /// Rebuilds the bound after the sorted region grew. The suffix-array
    /// rebuild telescopes to O(n) over a full scan (doubling growth); the
    /// tail rescan is O(tail) per growth, matching the O(tail)
    /// `select_nth_unstable_by` pass `RankOrder::ensure` just paid for
    /// the same growth — a constant-factor addition, never a new
    /// asymptotic term.
    fn refresh<S: RankSource + ?Sized>(&mut self, order: &RankOrder<'_, S>, costs: &[f64]) {
        if self.sorted_suffix_min.len() == order.sorted_upto {
            return;
        }
        self.sorted_suffix_min.resize(order.sorted_upto, 0.0);
        let mut min = f64::INFINITY;
        for pos in (0..order.sorted_upto).rev() {
            min = min.min(costs[order.at(pos)]);
            self.sorted_suffix_min[pos] = min;
        }
        self.tail_min = order.indices[order.sorted_upto..]
            .iter()
            .map(|i| costs[*i as usize])
            .fold(f64::INFINITY, f64::min);
    }

    /// Min cost over every candidate at walk position ≥ `walked`.
    fn at(&self, walked: usize) -> f64 {
        let sorted = self
            .sorted_suffix_min
            .get(walked)
            .copied()
            .unwrap_or(f64::INFINITY);
        sorted.min(self.tail_min)
    }
}

/// Greedy budget fit over lazily materialized rank order. The scan walks
/// best-first exactly like the seed, but stops expanding the sorted
/// region once the selection cap is hit or once not even the cheapest
/// *remaining* (unwalked) candidate fits the leftover budget — after
/// that point no further selection (and no rank-dependent note) is
/// possible, so the rest of the fleet never needs ordering.
fn budget_scan<S: RankSource + ?Sized>(
    source: &S,
    scores: &[f64],
    costs: &[f64],
    rows: &[u32],
    budget: f64,
    cap: usize,
    notes: BudgetNotes,
) -> Vec<RankedEntry> {
    let mut order = RankOrder::new(scores, rows.to_vec(), source);
    let n = order.len();
    let mut remaining_min = RemainingMinCost::new(costs, rows);
    let mut spent = 0.0;
    let mut taken = 0usize;
    let mut walked = 0usize;
    let mut decisions: Vec<(bool, DecisionNote)> = Vec::new();
    while walked < n {
        // remaining_min is +∞ when every remaining cost is NaN, so this
        // comparison never sees NaN.
        if taken >= cap || spent + remaining_min.at(walked) > budget {
            break;
        }
        order.ensure(walked + 1);
        remaining_min.refresh(&order, costs);
        let index = order.at(walked);
        let cost = costs[index];
        if taken < cap && spent + cost <= budget {
            spent += cost;
            taken += 1;
            decisions.push((true, DecisionNote::FitsBudget { spent, budget }));
        } else {
            decisions.push((
                false,
                match notes {
                    BudgetNotes::Detailed => DecisionNote::OverBudget {
                        cost,
                        spent,
                        budget,
                    },
                    BudgetNotes::Bare => DecisionNote::OverBudgetBare,
                },
            ));
        }
        walked += 1;
    }
    // Materialize the report prefix even when the budget exhausted early,
    // then every other row in row order.
    let prefix = walked.max(RANKED_PREFIX_MIN.min(n));
    order.ensure(prefix);
    let unprocessed_note = |index: usize| match notes {
        BudgetNotes::Detailed => DecisionNote::OverBudget {
            cost: costs[index],
            spent,
            budget,
        },
        BudgetNotes::Bare => DecisionNote::OverBudgetBare,
    };
    let entry = |index: usize, (selected, note)| RankedEntry {
        id: source.id(index),
        index,
        score: scores[index],
        selected,
        note,
    };
    let mut in_prefix = vec![false; scores.len()];
    let mut entries = Vec::with_capacity(n);
    for (pos, decision) in decisions.into_iter().enumerate() {
        in_prefix[order.at(pos)] = true;
        entries.push(entry(order.at(pos), decision));
    }
    for pos in entries.len()..prefix {
        in_prefix[order.at(pos)] = true;
        entries.push(entry(
            order.at(pos),
            (false, unprocessed_note(order.at(pos))),
        ));
    }
    let rest = rows.iter().map(|r| *r as usize).filter(|r| !in_prefix[*r]);
    entries.extend(rest.map(|index| entry(index, (false, unprocessed_note(index)))));
    entries
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::stats::{CandidateStats, QuotaSignal};
    use crate::traits::TraitDirection;
    use std::collections::BTreeMap;

    /// Whether column `id`'s bounds are maintained rather than stale.
    pub(crate) fn maintained(bounds: &Bounds, id: TraitId) -> bool {
        bounds.0[id.index()].is_some()
    }

    /// The one rescan rule of the maintained bounds: a column goes stale
    /// only when an extreme loses its last holder, or when a zero touches
    /// a zero extreme that zeros of both signs hold; every other step
    /// keeps it bit-equal to the in-order fold.
    #[test]
    fn bounds_rescan_only_when_an_extreme_loses_its_last_holder_or_zeros_mix() {
        let id = TraitMatrix::new(0).intern("x", None);
        let col = [3.0, 1.0, 1.0, 5.0, 0.0, -0.0, 0.0, 7.0, -0.0];
        let mut ranked = Bits::default();
        let mut bounds = Bounds::stale(1);
        let bits = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
        let mut step = |ranked: &mut Bits, row: u32, enter: bool, kept: bool| {
            ranked.put(row, enter);
            bounds.step(id, col[row as usize], enter);
            assert_eq!(maintained(&bounds, id), kept, "row {row}, enter {enter}");
            let fold = column_min_max(&col, ranked.ones());
            assert_eq!(bits(bounds.get(id, &col, ranked)), bits(fold), "row {row}");
        };
        // A value entering a stale column leaves it stale; the rescan
        // counts each extreme's holders, and later entries are counted.
        step(&mut ranked, 0, true, false);
        (1..4).for_each(|row| step(&mut ranked, row, true, true));
        // A tied extreme losing one of its holders stays maintained.
        step(&mut ranked, 1, false, true);
        // A value beyond an extreme moves it; its last holder leaving
        // forces the rescan.
        step(&mut ranked, 7, true, true);
        step(&mut ranked, 7, false, false);
        // Zeros of one sign form a maintained extreme.
        step(&mut ranked, 4, true, true);
        step(&mut ranked, 6, true, true);
        step(&mut ranked, 6, false, true);
        // A zero of the other sign touching it forces a rescan.
        step(&mut ranked, 5, true, false);
        // While both signs hold it, any zero forces one — even one of the
        // sign the fold returned — but other values do not.
        step(&mut ranked, 8, true, false);
        step(&mut ranked, 0, false, true);
        step(&mut ranked, 8, false, false);
        // Both min holders gone: the last-holder rule again.
        step(&mut ranked, 4, false, false);
        step(&mut ranked, 5, false, false);
        // Emptied, the fold's infinities.
        step(&mut ranked, 2, false, false);
        step(&mut ranked, 3, false, false);
        assert_eq!(
            bounds.get(id, &col, &ranked),
            (f64::INFINITY, f64::NEG_INFINITY)
        );
    }

    fn candidate(uid: u64, quota_util: Option<f64>) -> Candidate {
        Candidate {
            id: CandidateId::table(uid),
            database: "db".into(),
            table_name: format!("t{uid}").into(),
            compaction_enabled: true,
            is_intermediate: false,
            stats: CandidateStats {
                quota: quota_util.map(|u| QuotaSignal {
                    used: (u * 100.0) as u64,
                    total: 100,
                }),
                ..CandidateStats::default()
            },
        }
    }

    fn traits(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn directions() -> BTreeMap<String, TraitDirection> {
        [
            ("benefit".to_string(), TraitDirection::Benefit),
            ("cost".to_string(), TraitDirection::Cost),
        ]
        .into_iter()
        .collect()
    }

    fn matrix(tv: &[BTreeMap<String, f64>]) -> TraitMatrix {
        TraitMatrix::from_maps(tv, &directions()).unwrap()
    }

    #[test]
    fn normalization_handles_constant_and_spread() {
        assert_eq!(min_max_normalize(&[5.0, 5.0]), vec![0.5, 0.5]);
        let n = min_max_normalize(&[0.0, 5.0, 10.0]);
        assert_eq!(n, vec![0.0, 0.5, 1.0]);
        assert!(min_max_normalize(&[]).is_empty());
    }

    #[test]
    fn threshold_selects_above_minimum() {
        let cands = vec![candidate(1, None), candidate(2, None), candidate(3, None)];
        let tv = vec![
            traits(&[("benefit", 5.0)]),
            traits(&[("benefit", 15.0)]),
            traits(&[("benefit", 25.0)]),
        ];
        let policy = RankingPolicy::Threshold {
            trait_name: "benefit".into(),
            min_value: 10.0,
            max_k: None,
        };
        let ranked = rank_and_select(&cands, &matrix(&tv), &policy).unwrap();
        assert_eq!(ranked[0].id, CandidateId::table(3));
        assert!(ranked[0].selected && ranked[1].selected);
        assert!(!ranked[2].selected);
        assert_eq!(ranked[0].note.to_string(), "benefit 25.000 >= 10.000");
        assert_eq!(ranked[2].note.to_string(), "benefit 5.000 < 10.000");
    }

    #[test]
    fn threshold_cap_gets_a_distinct_note() {
        // Three candidates above threshold, cap of 1: the two dropped by
        // the cap must say so, not pretend they were below threshold (the
        // seed bug).
        let cands = vec![candidate(1, None), candidate(2, None), candidate(3, None)];
        let tv = vec![
            traits(&[("benefit", 30.0)]),
            traits(&[("benefit", 20.0)]),
            traits(&[("benefit", 5.0)]),
        ];
        let policy = RankingPolicy::Threshold {
            trait_name: "benefit".into(),
            min_value: 10.0,
            max_k: Some(1),
        };
        let ranked = rank_and_select(&cands, &matrix(&tv), &policy).unwrap();
        assert!(ranked[0].selected);
        assert!(!ranked[1].selected);
        assert_eq!(
            ranked[1].note.to_string(),
            "benefit 20.000 >= 10.000 but over cap k=1"
        );
        assert_eq!(ranked[2].note.to_string(), "benefit 5.000 < 10.000");
    }

    #[test]
    fn moop_balances_benefit_against_cost() {
        // The §4.2 motivating example: candidate 1 yields nearly the same
        // benefit as candidate 2 at a tenth of the cost, so it must rank
        // first. Candidate 3 anchors the min–max normalization (with only
        // two candidates every trait normalizes to {0,1}, which is the
        // known degenerate case of min–max scalarization).
        let cands = vec![candidate(1, None), candidate(2, None), candidate(3, None)];
        let tv = vec![
            traits(&[("benefit", 200.0), ("cost", 10.0)]),
            traits(&[("benefit", 210.0), ("cost", 100.0)]),
            traits(&[("benefit", 0.0), ("cost", 0.0)]),
        ];
        let policy = RankingPolicy::Moop {
            weights: vec![
                TraitWeight::new("benefit", 0.7),
                TraitWeight::new("cost", 0.3),
            ],
            k: 1,
        };
        let ranked = rank_and_select(&cands, &matrix(&tv), &policy).unwrap();
        assert_eq!(ranked[0].id, CandidateId::table(1), "ratio should win");
        assert!(ranked[0].selected);
        assert!(!ranked[1].selected);
        assert_eq!(ranked[0].note.to_string(), "rank 1 <= k=1");
        assert_eq!(ranked[1].note.to_string(), "rank 2 > k=1");
    }

    #[test]
    fn moop_rejects_bad_weights() {
        let cands = vec![candidate(1, None)];
        let tv = vec![traits(&[("benefit", 1.0)])];
        let bad_sum = RankingPolicy::Moop {
            weights: vec![TraitWeight::new("benefit", 0.5)],
            k: 1,
        };
        assert!(matches!(
            rank_and_select(&cands, &matrix(&tv), &bad_sum),
            Err(AutoCompError::InvalidWeights(_))
        ));
        let unknown = RankingPolicy::Moop {
            weights: vec![TraitWeight::new("nope", 1.0)],
            k: 1,
        };
        assert!(matches!(
            rank_and_select(&cands, &matrix(&tv), &unknown),
            Err(AutoCompError::UnknownTrait(_))
        ));
    }

    #[test]
    fn moop_requires_a_direction_for_weighted_traits() {
        // A trait present in the matrix but with no declared direction
        // cannot be scalarized (seed: missing `directions` entry).
        let cands = vec![candidate(1, None), candidate(2, None)];
        let tv = vec![traits(&[("mystery", 1.0)]), traits(&[("mystery", 2.0)])];
        let m = TraitMatrix::from_maps(&tv, &BTreeMap::new()).unwrap();
        let policy = RankingPolicy::Moop {
            weights: vec![TraitWeight::new("mystery", 1.0)],
            k: 1,
        };
        assert!(matches!(
            rank_and_select(&cands, &m, &policy),
            Err(AutoCompError::UnknownTrait(_))
        ));
    }

    #[test]
    fn budget_selection_is_dynamic_k() {
        let cands: Vec<Candidate> = (1..=4).map(|i| candidate(i, None)).collect();
        let tv = vec![
            traits(&[("benefit", 100.0), ("cost", 60.0)]),
            traits(&[("benefit", 90.0), ("cost", 30.0)]),
            traits(&[("benefit", 80.0), ("cost", 30.0)]),
            traits(&[("benefit", 10.0), ("cost", 1.0)]),
        ];
        let policy = RankingPolicy::BudgetedMoop {
            weights: vec![
                TraitWeight::new("benefit", 0.7),
                TraitWeight::new("cost", 0.3),
            ],
            cost_trait: "cost".into(),
            budget: 65.0,
            max_k: None,
        };
        let ranked = rank_and_select(&cands, &matrix(&tv), &policy).unwrap();
        let selected: Vec<u64> = ranked
            .iter()
            .filter(|e| e.selected)
            .map(|e| e.id.table_uid)
            .collect();
        // Greedy fit: best-scored first while budget lasts; candidate 1
        // (cost 60) takes most of the budget, then only candidate 4 fits.
        let spent: f64 = ranked
            .iter()
            .filter(|e| e.selected)
            .map(|e| match e.id.table_uid {
                1 => 60.0,
                2 | 3 => 30.0,
                _ => 1.0,
            })
            .sum();
        assert!(spent <= 65.0, "spent {spent}");
        assert!(!selected.is_empty());
    }

    #[test]
    fn budget_scan_stops_once_no_remaining_candidate_fits() {
        // The cheapest candidate ranks first (highest score) and consumes
        // most of the budget; every *remaining* candidate costs more than
        // the leftover. The suffix-min early-out must stop the rank walk
        // right after the selection instead of materializing the full
        // fleet order — observable because the unwalked tail stays in
        // candidate order (ascending index) rather than rank order
        // (descending score ⇒ descending index here).
        let n = 60u64;
        let cands: Vec<Candidate> = (1..=n).map(|i| candidate(i, None)).collect();
        let tv: Vec<BTreeMap<String, f64>> = (1..=n)
            .map(|i| {
                let cost = if i == n { 10.0 } else { 50.0 };
                traits(&[("benefit", i as f64), ("cost", cost)])
            })
            .collect();
        let policy = RankingPolicy::BudgetedMoop {
            weights: vec![TraitWeight::new("benefit", 1.0)],
            cost_trait: "cost".into(),
            budget: 15.0,
            max_k: None,
        };
        let ranked = rank_and_select(&cands, &matrix(&tv), &policy).unwrap();
        let selected: Vec<u64> = ranked
            .iter()
            .filter(|e| e.selected)
            .map(|e| e.id.table_uid)
            .collect();
        assert_eq!(selected, vec![n], "only the cheap top candidate fits");
        // Prefix rows (report) are rank-ordered; the tail is in candidate
        // order, proving the walk stopped at the early-out.
        for w in ranked[RANKED_PREFIX_MIN..].windows(2) {
            assert!(
                w[0].index < w[1].index,
                "tail must be candidate-ordered (walk stopped early)"
            );
        }
        // Every unselected entry reports the budget verdict.
        assert!(ranked
            .iter()
            .filter(|e| !e.selected)
            .all(|e| e.note.to_string().starts_with("over budget")));
    }

    #[test]
    fn quota_pressure_boosts_priority() {
        // Same traits, different quota pressure: the fuller database's
        // candidate must rank first (§7's w1 formula).
        let cands = vec![candidate(1, Some(0.1)), candidate(2, Some(0.9))];
        let tv = vec![
            traits(&[("benefit", 50.0), ("cost", 50.0)]),
            traits(&[("benefit", 50.0), ("cost", 50.0)]),
        ];
        let policy = RankingPolicy::QuotaAwareMoop {
            benefit_trait: "benefit".into(),
            cost_trait: "cost".into(),
            k: Some(1),
            budget: None,
        };
        let ranked = rank_and_select(&cands, &matrix(&tv), &policy).unwrap();
        assert_eq!(ranked[0].id, CandidateId::table(2));
        assert!(ranked[0].selected);
        assert_eq!(ranked[0].note.to_string(), "quota-aware rank 1");
    }

    #[test]
    fn quota_policy_requires_k_or_budget() {
        let cands = vec![candidate(1, None)];
        let tv = vec![traits(&[("benefit", 1.0), ("cost", 1.0)])];
        let policy = RankingPolicy::QuotaAwareMoop {
            benefit_trait: "benefit".into(),
            cost_trait: "cost".into(),
            k: None,
            budget: None,
        };
        assert!(matches!(
            rank_and_select(&cands, &matrix(&tv), &policy),
            Err(AutoCompError::InvalidConfig(_))
        ));
    }

    #[test]
    fn ties_break_on_candidate_id() {
        let cands = vec![candidate(2, None), candidate(1, None)];
        let tv = vec![traits(&[("benefit", 5.0)]), traits(&[("benefit", 5.0)])];
        let policy = RankingPolicy::Moop {
            weights: vec![TraitWeight::new("benefit", 1.0)],
            k: 1,
        };
        let ranked = rank_and_select(&cands, &matrix(&tv), &policy).unwrap();
        assert_eq!(ranked[0].id, CandidateId::table(1), "lower id wins ties");
    }

    #[test]
    fn nan_scores_rank_last_without_panicking() {
        // The seed's `partial_cmp(...).expect(...)` turned one NaN trait
        // into a fleet-wide cycle abort; the columnar path totals the
        // order instead.
        let cands = vec![candidate(1, None), candidate(2, None), candidate(3, None)];
        let tv = vec![
            traits(&[("benefit", f64::NAN)]),
            traits(&[("benefit", 15.0)]),
            traits(&[("benefit", 25.0)]),
        ];
        let policy = RankingPolicy::Threshold {
            trait_name: "benefit".into(),
            min_value: 10.0,
            max_k: None,
        };
        let ranked = rank_and_select(&cands, &matrix(&tv), &policy).unwrap();
        assert_eq!(ranked[0].id, CandidateId::table(3));
        assert_eq!(ranked[1].id, CandidateId::table(2));
        assert_eq!(ranked[2].id, CandidateId::table(1));
        assert!(!ranked[2].selected, "NaN never satisfies a threshold");
    }

    #[test]
    fn tail_entries_follow_in_candidate_order() {
        // 50 candidates, k=2: the first max(k, RANKED_PREFIX_MIN) entries
        // are in exact rank order; the tail is in candidate order.
        let cands: Vec<Candidate> = (1..=50).map(|i| candidate(i, None)).collect();
        let tv: Vec<BTreeMap<String, f64>> = (1..=50)
            .map(|i| traits(&[("benefit", f64::from(i % 17) * 3.0)]))
            .collect();
        let policy = RankingPolicy::Moop {
            weights: vec![TraitWeight::new("benefit", 1.0)],
            k: 2,
        };
        let ranked = rank_and_select(&cands, &matrix(&tv), &policy).unwrap();
        assert_eq!(ranked.len(), 50);
        assert_eq!(ranked.iter().filter(|e| e.selected).count(), 2);
        // Prefix in strict rank order.
        for w in ranked[..RANKED_PREFIX_MIN].windows(2) {
            assert!(w[0].score > w[1].score || (w[0].score == w[1].score && w[0].id < w[1].id));
        }
        // Tail in candidate-index order.
        for w in ranked[RANKED_PREFIX_MIN..].windows(2) {
            assert!(w[0].index < w[1].index);
        }
        // Every candidate appears exactly once.
        let mut seen: Vec<usize> = ranked.iter().map(|e| e.index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }
}
