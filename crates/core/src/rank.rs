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
//! a full fleet sort: for a fixed k the decide phase is **O(n + k log k)**
//! in the candidate count n. Returned entries carry their candidate
//! `index` so downstream phases address the matrix and candidate slice
//! directly, with no id-keyed side tables.
//!
//! ## Ordering contract
//!
//! Entries are returned best-first for the *materialized prefix* — at
//! least every selected candidate plus the first
//! [`RANKED_PREFIX_MIN`] rows (what [`CycleReport`] renders). Entries past
//! the prefix follow in candidate order and their notes carry no exact
//! rank; nothing renders them. The seed sorted the entire fleet for every
//! cycle, which is exactly the O(n log n) framework overhead §7 warns
//! about. The output type is [`RankedEntries`]: the prefix is eager
//! (`head()`), and on single-candidate-scope paths the candidate-order
//! tail is generated **lazily** on iteration from compact per-row
//! columns — the fleet-wide `Vec<RankedEntry>` materialization is gone
//! from the hot cycle, and iterating reproduces it bit-for-bit.
//!
//! # Incremental rank maintenance (exactness contract)
//!
//! Across incremental cycles the pipeline retains a rank memo — the
//! per-candidate scores, the min–max normalization bounds they were
//! computed under, and an exact-order prefix larger than the report head
//! — **inside the cycle cache's generation**, row-aligned with its kept
//! rows: the memo reaches a cycle exactly when the generation it belongs
//! to is spliceable (see [`crate::cache`]), so it needs no keys of its
//! own. The maintained state is reused only when all of the following
//! hold; otherwise the fleet-wide path recomputes everything (and
//! re-seeds the memo):
//!
//! * the policy shape is unchanged (guaranteed by the config epoch,
//!   checked defensively), and it is not inherently global —
//!   budget-driven policies ([`RankingPolicy::BudgetedMoop`] and the
//!   budget mode of [`RankingPolicy::QuotaAwareMoop`]) walk the fleet in
//!   rank order with a running budget, so no per-row delta can be
//!   maintained for them;
//! * every normalization bound (per-column min and span) is
//!   **bit-identical** to the memo's — min–max normalization is
//!   fleet-global, so any movement changes every score; bounds are
//!   recomputed each cycle in O(n) and compared bitwise;
//! * enough of the retained prefix survived as spliced (unchanged) rows:
//!   rows outside the pool ranked below every retained-prefix member
//!   last cycle and are unchanged, so merging the surviving prefix with
//!   the re-scored dirty rows yields the exact top-j for every
//!   j ≤ survivors — fewer survivors than the needed head forces the
//!   fallback.
//!
//! Under the memo, quiet rows' scores are *spliced* (bit-identical by
//! construction: same inputs, same accumulation order) and only
//! dirty/settled rows re-score. Feedback ingestion still does **not**
//! bump the epoch: calibration scales act-phase predictions, while
//! scores are pure functions of the (calibration-free) trait matrix —
//! exactly the cycle cache's rule. The incremental parity harness pins
//! bit-identical `CycleReport`s across both the maintained and fallback
//! paths.
//!
//! [`CycleReport`]: crate::pipeline::CycleReport

use std::fmt;
use std::sync::Arc;

use crate::candidate::{Candidate, CandidateId, ScopeKind};
use crate::error::AutoCompError;
use crate::matrix::TraitMatrix;
use crate::pipeline::KeptSlot;
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
    /// Number of candidates (must equal the trait matrix's row count).
    fn len(&self) -> usize;

    /// Whether the source holds no candidates.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

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
    fn tail_identity(&self) -> Option<(ScopeKind, Vec<u64>)> {
        None
    }
}

impl RankSource for [Candidate] {
    fn len(&self) -> usize {
        self.len()
    }
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
/// Entries are columnar-friendly: they carry the candidate's `index` into
/// the cycle's candidate slice / [`TraitMatrix`] rows instead of cloned
/// trait maps, and the `note` is a lazy [`DecisionNote`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankedEntry {
    /// Candidate identity.
    pub id: CandidateId,
    /// Row index into the cycle's candidate slice and trait matrix.
    pub index: usize,
    /// Scalarized score (or raw trait value for threshold policies).
    pub score: f64,
    /// Whether the decide phase selected this candidate.
    pub selected: bool,
    /// Why it was (not) selected; rendered on [`Display`](fmt::Display).
    pub note: DecisionNote,
}

impl RankedEntry {
    /// Looks up one of this entry's trait values in the cycle matrix.
    pub fn trait_value(&self, matrix: &TraitMatrix, name: &str) -> Option<f64> {
        matrix.trait_id(name).map(|id| matrix.value(self.index, id))
    }
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

/// Deferred tail of a decide-phase output: per-row scores and identities
/// kept in compact columnar form; [`RankedEntry`] values are generated on
/// iteration, in candidate order, bit-identical to the eager path.
#[derive(Debug, Clone)]
struct LazyTail {
    /// Score per candidate row (all rows, in candidate order).
    scores: Vec<f64>,
    /// Table uid per candidate row.
    uids: Vec<u64>,
    /// Uniform candidate scope (single-candidate scopes only).
    scope: ScopeKind,
    /// Rows already materialized in the head.
    in_head: Vec<bool>,
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
    fn entry(&self, row: usize) -> RankedEntry {
        let score = self.scores[row];
        RankedEntry {
            id: CandidateId {
                table_uid: self.uids[row],
                scope: self.scope,
                partition: None,
            },
            index: row,
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
/// On hot single-candidate-scope paths the tail is **lazy**: entries are
/// generated on [`iter`](Self::iter)/[`to_vec`](Self::to_vec) from
/// compact per-row columns instead of being materialized every cycle —
/// at 100K tables the eager fleet-wide `Vec<RankedEntry>` was a
/// measurable slice of the steady-state incremental cycle. Iteration
/// yields entries bit-identical to the eager path (pinned by the parity
/// suites); [`head`](Self::head) is the eager accessor rendering and
/// seed-parity tests pin unchanged output against.
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
        match &self.tail {
            None => self.head.len(),
            Some(tail) => tail.scores.len(),
        }
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
    /// entries generated on the fly in candidate order — exactly the
    /// sequence the eager path materializes.
    pub fn iter(&self) -> impl Iterator<Item = RankedEntry> + '_ {
        let tail_rows = match &self.tail {
            None => 0..0,
            Some(tail) => 0..tail.scores.len(),
        };
        self.head.iter().cloned().chain(
            tail_rows
                .filter(move |row| self.tail.as_ref().is_some_and(|tail| !tail.in_head[*row]))
                .map(move |row| {
                    self.tail
                        .as_ref()
                        .expect("tail rows imply a tail")
                        .entry(row)
                }),
        )
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
    if values.is_empty() {
        return Vec::new();
    }
    let (min, max) = column_min_max(values);
    let span = max - min;
    values.iter().map(|v| normalize(*v, min, span)).collect()
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

fn column_min_max(values: &[f64]) -> (f64, f64) {
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (min, max)
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

/// Lazily materializes the fleet's rank order (score descending, ties by
/// candidate id): `ensure(upto)` extends the sorted prefix by partial
/// selection — `select_nth_unstable_by` to split off the next chunk, then
/// a sort of just that chunk — with doubling chunk growth, so consuming k
/// of n candidates costs O(n + k log k) instead of a full O(n log n) sort.
struct RankOrder<'a, S: RankSource + ?Sized> {
    indices: Vec<u32>,
    sorted_upto: usize,
    /// `sort_key(score)` precomputed once per candidate: the selection
    /// comparator runs O(n) times per `ensure` growth and the NaN/±0
    /// normalization branches are hoisted out of it.
    keys: Vec<f64>,
    source: &'a S,
}

impl<'a, S: RankSource + ?Sized> RankOrder<'a, S> {
    fn new(scores: &'a [f64], source: &'a S) -> Self {
        debug_assert_eq!(scores.len(), source.len());
        RankOrder {
            indices: (0..source.len() as u32).collect(),
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

/// Assembles the output vector: the materialized rank-order prefix first
/// (with per-position notes), then every remaining candidate in candidate
/// order (with a shared tail note).
fn assemble_entries<S: RankSource + ?Sized>(
    source: &S,
    scores: &[f64],
    order: &RankOrder<'_, S>,
    prefix: usize,
    mut prefix_entry: impl FnMut(usize, usize) -> (bool, DecisionNote),
    mut tail_note: impl FnMut(usize) -> (bool, DecisionNote),
) -> Vec<RankedEntry> {
    let n = source.len();
    let mut entries = Vec::with_capacity(n);
    let mut in_prefix = vec![false; n];
    for pos in 0..prefix {
        let index = order.at(pos);
        in_prefix[index] = true;
        let (selected, note) = prefix_entry(pos, index);
        entries.push(RankedEntry {
            id: source.id(index),
            index,
            score: scores[index],
            selected,
            note,
        });
    }
    for index in 0..n {
        if in_prefix[index] {
            continue;
        }
        let (selected, note) = tail_note(index);
        entries.push(RankedEntry {
            id: source.id(index),
            index,
            score: scores[index],
            selected,
            note,
        });
    }
    entries
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
    rank_with_memo(candidates, matrix, policy, None).map(|(entries, _, _)| entries.into_vec())
}

/// Sentinel "no prior row" marker in a [`RankDelta`] splice map.
pub(crate) const NO_PRIOR_ROW: u32 = u32::MAX;

/// Retained decide-phase state of one cycle, aligned to the cycle
/// cache's generation rows — the structure incremental rank maintenance
/// reuses next cycle (see the module docs' exactness contract).
#[derive(Debug, Clone)]
pub(crate) struct RankMemo {
    /// Policy-shape discriminant (defensive: the config epoch already
    /// pins the policy, but a mismatched memo must never splice).
    kind: u8,
    /// Bit patterns of the min–max normalization bounds per consumed
    /// column, in policy consumption order. Any movement invalidates the
    /// per-row scores wholesale (normalization is fleet-global).
    bounds: Vec<(u64, u64)>,
    /// Final per-row scores by generation row.
    scores: Vec<f64>,
    /// Whether the generation row was ranked (present post-suppression,
    /// post-NaN) — rows without a score always recompute.
    has: Vec<bool>,
    /// Generation rows of the retained exact-rank-order prefix
    /// (strictly larger than the report head, so a few dirty rows per
    /// cycle cannot immediately force a fleet-wide re-sort).
    prefix: Vec<u32>,
}

impl RankMemo {
    /// Writes the memo into a snapshot, scores as raw IEEE-754 bits so a
    /// restored memo splices bit-identically.
    pub(crate) fn snapshot_write(&self, enc: &mut lakesim_storage::Encoder) {
        enc.put_u8(self.kind);
        enc.put_u64(self.bounds.len() as u64);
        for (lo, hi) in &self.bounds {
            enc.put_u64(*lo);
            enc.put_u64(*hi);
        }
        enc.put_u64(self.scores.len() as u64);
        for score in &self.scores {
            enc.put_f64(*score);
        }
        debug_assert_eq!(self.scores.len(), self.has.len());
        for has in &self.has {
            enc.put_bool(*has);
        }
        enc.put_u64(self.prefix.len() as u64);
        for row in &self.prefix {
            enc.put_u32(*row);
        }
    }

    /// Restores a memo from a snapshot, re-validating the structural
    /// invariants (`has` row-aligned with `scores`, prefix rows in
    /// bounds) so a corrupt payload is rejected instead of spliced.
    pub(crate) fn snapshot_read(
        dec: &mut lakesim_storage::Decoder<'_>,
    ) -> std::result::Result<Self, lakesim_storage::CodecError> {
        use lakesim_storage::CodecError;
        let kind = dec.take_u8("memo kind")?;
        let bounds = (0..dec.take_len(16, "memo bounds")?)
            .map(|_| {
                Ok((
                    dec.take_u64("memo bound lo")?,
                    dec.take_u64("memo bound hi")?,
                ))
            })
            .collect::<std::result::Result<Vec<_>, CodecError>>()?;
        let rows = dec.take_len(8, "memo scores")?;
        let scores = (0..rows)
            .map(|_| dec.take_f64("memo score"))
            .collect::<std::result::Result<Vec<_>, CodecError>>()?;
        let has = (0..rows)
            .map(|_| dec.take_bool("memo has"))
            .collect::<std::result::Result<Vec<_>, CodecError>>()?;
        let prefix = (0..dec.take_len(4, "memo prefix")?)
            .map(|_| dec.take_u32("memo prefix row"))
            .collect::<std::result::Result<Vec<_>, CodecError>>()?;
        if prefix.iter().any(|r| *r as usize >= rows) {
            return Err(CodecError::Invalid("memo prefix row out of bounds"));
        }
        Ok(RankMemo {
            kind,
            bounds,
            scores,
            has,
            prefix,
        })
    }
}

/// Inputs wiring one cycle's splice mapping into the rank phase.
pub(crate) struct RankDelta<'a> {
    /// The memo of the generation the cycle spliced from — present
    /// exactly when that generation was usable.
    pub(crate) memo: Option<&'a RankMemo>,
    /// The current rows' kept slots: `cached_row` is the prior
    /// generation row the trait row and score splice from (or
    /// [`NO_PRIOR_ROW`] for recomputed rows), `gen_row` the row in the
    /// generation installed this cycle that the next memo scatters to.
    pub(crate) slots: &'a [KeptSlot],
    /// Kept-row count of the generation installed this cycle.
    pub(crate) gen_len: usize,
}

/// Splice effectiveness of one rank pass (see
/// [`AutoComp::rank_memo_stats`](crate::pipeline::AutoComp::rank_memo_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankCycleStats {
    /// Whether top-k selection was maintained from the retained prefix
    /// (no fleet-wide ordering pass ran).
    pub memo_fast: bool,
    /// Rows whose score was spliced from the retained memo.
    pub spliced_scores: usize,
    /// Rows whose score was recomputed (dirty rows, or the whole fleet
    /// on the fallback path).
    pub recomputed_scores: usize,
}

/// One pre-resolved weighted column of a MOOP scalarization.
struct WeightedCol<'a> {
    col: &'a [f64],
    min: f64,
    span: f64,
    /// `sign × weight`, folded once so per-row recomputes accumulate in
    /// exactly the shape [`weighted_full`] uses.
    factor: f64,
}

/// Decide phase with optional cross-cycle maintenance: ranks `source`
/// under `policy`; when `delta` is provided, splices per-row scores from
/// the retained memo (bounds permitting), maintains top-k selection from
/// the retained prefix, and emits the next cycle's memo. `delta: None`
/// is exactly the historical fleet-wide path.
pub(crate) fn rank_with_memo<S: RankSource + ?Sized>(
    source: &S,
    matrix: &TraitMatrix,
    policy: &RankingPolicy,
    delta: Option<&RankDelta<'_>>,
) -> Result<(RankedEntries, Option<RankMemo>, RankCycleStats)> {
    if source.is_empty() {
        return Ok((
            RankedEntries::eager(Vec::new()),
            None,
            RankCycleStats::default(),
        ));
    }
    debug_assert_eq!(matrix.rows(), source.len());
    let n = source.len();
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
            let above = col.iter().filter(|s| **s >= min_value).count();
            let sel = above.min(cap);
            let tail = TailNoteSpec::Threshold {
                trait_name: name.clone(),
                min_value,
                cap,
            };
            Ok(rank_incremental_policy(
                source,
                1,
                Vec::new(),
                sel,
                || col.to_vec(),
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
                delta,
            ))
        }
        RankingPolicy::Moop { weights, k } => {
            validate_weights(weights)?;
            // Key on (min, span) bits — exactly the two values
            // `normalize` consumes, so bit-equal keys imply bit-equal
            // normalization.
            let parts = weighted_parts(matrix, weights)?;
            let bounds = parts
                .iter()
                .map(|p| (p.min.to_bits(), p.span.to_bits()))
                .collect();
            let k = *k;
            let sel = k.min(n);
            Ok(rank_incremental_policy(
                source,
                2,
                bounds,
                sel,
                || weighted_full(&parts, n),
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
                delta,
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
            let scores = weighted_full(&weighted_parts(matrix, weights)?, n);
            let costs = matrix.col(cost_id);
            let order = RankOrder::new(&scores, source);
            // The budget walk is inherently global: each selection moves
            // the remaining budget, so no per-row delta can be maintained
            // — always the fleet-wide path (see the module docs).
            Ok((
                RankedEntries::eager(budget_scan(
                    source,
                    &scores,
                    costs,
                    order,
                    *budget,
                    max_k.unwrap_or(usize::MAX),
                    BudgetNotes::Detailed,
                )),
                None,
                RankCycleStats {
                    memo_fast: false,
                    spliced_scores: 0,
                    recomputed_scores: n,
                },
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
            let (bmin, bmax) = column_min_max(benefit_col);
            let (cmin, cmax) = column_min_max(cost_col);
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
                    let sel = k.min(n);
                    let bounds = vec![
                        (bmin.to_bits(), bspan.to_bits()),
                        (cmin.to_bits(), cspan.to_bits()),
                    ];
                    Ok(rank_incremental_policy(
                        source,
                        3,
                        bounds,
                        sel,
                        || (0..n).map(quota_row).collect(),
                        quota_row,
                        |pos, _, _| (pos < k, DecisionNote::QuotaRank { rank: pos + 1 }),
                        TailNoteSpec::Quota,
                        delta,
                    ))
                }
                (None, Some(budget)) => {
                    let scores: Vec<f64> = (0..n).map(quota_row).collect();
                    let order = RankOrder::new(&scores, source);
                    Ok((
                        RankedEntries::eager(budget_scan(
                            source,
                            &scores,
                            cost_col,
                            order,
                            *budget,
                            usize::MAX,
                            BudgetNotes::Bare,
                        )),
                        None,
                        RankCycleStats {
                            memo_fast: false,
                            spliced_scores: 0,
                            recomputed_scores: n,
                        },
                    ))
                }
                (None, None) => Err(AutoCompError::InvalidConfig(
                    "QuotaAwareMoop needs k or budget".into(),
                )),
            }
        }
    }
}

/// Resolves MOOP weights to their columns, normalization bounds and
/// folded factors.
fn weighted_parts<'a>(
    matrix: &'a TraitMatrix,
    weights: &[TraitWeight],
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
            let (min, max) = column_min_max(col);
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

/// Fleet-wide weighted-sum scalarization over pre-resolved parts: one
/// fused normalize-and-accumulate pass per weight, no intermediate
/// columns.
fn weighted_full(parts: &[WeightedCol<'_>], rows: usize) -> Vec<f64> {
    let mut scores = vec![0.0; rows];
    for part in parts {
        // The constant-column branch is hoisted out of the row loop; both
        // arms apply the shared `normalize` rule.
        if part.span.abs() < f64::EPSILON {
            for s in scores.iter_mut() {
                *s += part.factor * 0.5;
            }
        } else {
            for (s, v) in scores.iter_mut().zip(part.col) {
                *s += part.factor * normalize(*v, part.min, part.span);
            }
        }
    }
    scores
}

/// One row's weighted-sum score, accumulated in the same per-weight
/// order as [`weighted_full`] (bit-identical by construction).
fn weighted_row(parts: &[WeightedCol<'_>], i: usize) -> f64 {
    let mut score = 0.0;
    for part in parts {
        score += if part.span.abs() < f64::EPSILON {
            part.factor * 0.5
        } else {
            part.factor * normalize(part.col[i], part.min, part.span)
        };
    }
    score
}

/// Shared core of the incremental-capable policies (threshold, MOOP
/// top-k, quota-aware top-k): score (splicing from the memo when the
/// normalization bounds are bit-unchanged), select (maintaining the
/// retained prefix when enough of it survived), and assemble the head +
/// (lazy) tail, emitting the next memo when a delta is wired in.
#[allow(clippy::too_many_arguments)]
fn rank_incremental_policy<S: RankSource + ?Sized>(
    source: &S,
    kind: u8,
    bounds: Vec<(u64, u64)>,
    sel: usize,
    score_full: impl Fn() -> Vec<f64>,
    score_row: impl Fn(usize) -> f64,
    prefix_entry: impl Fn(usize, usize, &[f64]) -> (bool, DecisionNote),
    tail_spec: TailNoteSpec,
    delta: Option<&RankDelta<'_>>,
) -> (RankedEntries, Option<RankMemo>, RankCycleStats) {
    let n = source.len();
    let needed = sel.max(RANKED_PREFIX_MIN).min(n);
    // Retained-prefix size: enough slack that the expected dirty set
    // cannot knock the stable membership below `needed` every cycle.
    let memo_target = needed.saturating_add(needed.max(64)).min(n);
    let mut stats = RankCycleStats::default();

    // The memo splices only when the policy shape and every
    // normalization bound are bit-identical: scores are then pure
    // per-row functions of (unchanged) trait values.
    let memo = delta
        .and_then(|d| d.memo)
        .filter(|m| m.kind == kind && m.bounds == bounds);

    // Score pass: splice quiet rows, recompute the rest. The same walk
    // maps the retained prefix (prior generation rows) onto current rows
    // — a member is *stable* when it survived as a spliced row
    // (identical score by the bounds check above).
    let mut fresh_rows: Vec<u32> = Vec::new();
    let mut stable_slots: Vec<u32> = Vec::new();
    let scores: Vec<f64> = match (delta, memo) {
        (Some(d), Some(m)) => {
            let mut prefix_pos = vec![NO_PRIOR_ROW; m.scores.len()];
            for (pos, g) in m.prefix.iter().enumerate() {
                prefix_pos[*g as usize] = pos as u32;
            }
            stable_slots = vec![NO_PRIOR_ROW; m.prefix.len()];
            let mut scores = Vec::with_capacity(n);
            for i in 0..n {
                let prior = d.slots[i].cached_row;
                let g = prior as usize;
                if prior != NO_PRIOR_ROW && g < m.scores.len() && m.has[g] {
                    stats.spliced_scores += 1;
                    scores.push(m.scores[g]);
                    let pos = prefix_pos[g];
                    if pos != NO_PRIOR_ROW {
                        stable_slots[pos as usize] = i as u32;
                    }
                } else {
                    stats.recomputed_scores += 1;
                    fresh_rows.push(i as u32);
                    scores.push(score_row(i));
                }
            }
            scores
        }
        _ => {
            stats.recomputed_scores = n;
            score_full()
        }
    };

    // Rank comparator: score descending (NaN last, ±0 tied), ties by
    // candidate id — identical to `RankOrder`'s.
    let before = |a: u32, b: u32| {
        sort_key(scores[b as usize])
            .total_cmp(&sort_key(scores[a as usize]))
            .then_with(|| source.cmp_ids(a as usize, b as usize))
            == std::cmp::Ordering::Less
    };

    // Selection: maintain the retained prefix when possible, otherwise
    // run the fleet-wide lazy partial selection.
    let mut order_rows: Option<Vec<u32>> = None;
    if memo.is_some() {
        let stable: Vec<u32> = stable_slots
            .into_iter()
            .filter(|r| *r != NO_PRIOR_ROW)
            .collect();
        // Exactness guard: every row outside the pool ranked after all
        // retained-prefix members last cycle and is unchanged, so the
        // merged top-j is the true top-j for every j ≤ |stable|. Fewer
        // survivors than `needed` ⇒ fleet-wide fallback.
        if needed <= stable.len() {
            fresh_rows.sort_unstable_by(|a, b| {
                if before(*a, *b) {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            });
            let take = memo_target.min(stable.len());
            let mut merged = Vec::with_capacity(take);
            let (mut si, mut fi) = (0usize, 0usize);
            while merged.len() < take {
                match (stable.get(si), fresh_rows.get(fi)) {
                    (Some(s), Some(f)) => {
                        if before(*f, *s) {
                            merged.push(*f);
                            fi += 1;
                        } else {
                            merged.push(*s);
                            si += 1;
                        }
                    }
                    (Some(s), None) => {
                        merged.push(*s);
                        si += 1;
                    }
                    (None, Some(f)) => {
                        merged.push(*f);
                        fi += 1;
                    }
                    (None, None) => break,
                }
            }
            stats.memo_fast = true;
            order_rows = Some(merged);
        }
    }
    let order_rows = match order_rows {
        Some(rows) => rows,
        None => {
            let mut order = RankOrder::new(&scores, source);
            let prefix = if delta.is_some() {
                memo_target.max(needed)
            } else {
                needed
            };
            order.ensure(prefix);
            order.indices[..prefix].to_vec()
        }
    };

    // Head assembly: exactly `needed` rank-ordered rows (the extra
    // ordered rows beyond `needed` only feed the next memo's prefix).
    let mut in_head = vec![false; n];
    let mut head = Vec::with_capacity(needed);
    for (pos, row) in order_rows.iter().take(needed).enumerate() {
        let index = *row as usize;
        in_head[index] = true;
        let (selected, note) = prefix_entry(pos, index, &scores);
        head.push(RankedEntry {
            id: source.id(index),
            index,
            score: scores[index],
            selected,
            note,
        });
    }

    // Next cycle's memo, aligned to the generation installed this cycle:
    // scores scatter through each slot's generation row (rows thinned
    // after the walk keep `has` false).
    let memo_out = delta.map(|d| {
        let mut gen_scores = vec![0.0; d.gen_len];
        let mut has = vec![false; d.gen_len];
        for (slot, score) in d.slots.iter().zip(&scores) {
            let g = slot.gen_row as usize;
            gen_scores[g] = *score;
            has[g] = true;
        }
        RankMemo {
            kind,
            bounds,
            scores: gen_scores,
            has,
            prefix: order_rows
                .iter()
                .map(|r| d.slots[*r as usize].gen_row)
                .collect(),
        }
    });

    let entries = match source.tail_identity() {
        Some((scope, uids)) => {
            debug_assert_eq!(uids.len(), n);
            RankedEntries {
                head,
                tail: Some(LazyTail {
                    scores,
                    uids,
                    scope,
                    in_head,
                    note: tail_spec,
                }),
            }
        }
        None => {
            let mut all = head;
            all.reserve(n - all.len());
            for index in 0..n {
                if in_head[index] {
                    continue;
                }
                all.push(RankedEntry {
                    id: source.id(index),
                    index,
                    score: scores[index],
                    selected: false,
                    note: tail_spec.note(scores[index]),
                });
            }
            RankedEntries::eager(all)
        }
    };
    (entries, memo_out, stats)
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
    /// Starts with an empty sorted region: the tail is the whole fleet.
    fn new(costs: &[f64]) -> Self {
        RemainingMinCost {
            sorted_suffix_min: Vec::new(),
            tail_min: costs.iter().cloned().fold(f64::INFINITY, f64::min),
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
    mut order: RankOrder<'_, S>,
    budget: f64,
    cap: usize,
    notes: BudgetNotes,
) -> Vec<RankedEntry> {
    let n = order.len();
    let mut remaining_min = RemainingMinCost::new(costs);
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
    // Materialize the report prefix even when the budget exhausted early.
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
    assemble_entries(
        source,
        scores,
        &order,
        prefix,
        |pos, index| {
            if pos < decisions.len() {
                decisions[pos].clone()
            } else {
                (false, unprocessed_note(index))
            }
        },
        |index| (false, unprocessed_note(index)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{CandidateStats, QuotaSignal};
    use crate::traits::TraitDirection;
    use std::collections::BTreeMap;

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
