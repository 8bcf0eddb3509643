//! A naive reference for one whole decision cycle: filter → orient →
//! rank → select over one observation, written row by row with none of
//! the pipeline's machinery — no retained state, no splice, no partial
//! selection. It is the executable specification the incremental decide
//! path is checked against.
//!
//! * **Filter**: every candidate of [`FleetObservation::to_candidates`]
//!   runs the chain in registration order; the first drop wins, named
//!   `"<filter>: <reason>"`.
//! * **Orient**: one trait call per kept row and computer; a name
//!   registered twice keeps the last computer's value and direction. A
//!   row holding a NaN is dropped after every filter drop, named after
//!   its first NaN trait in registration order.
//! * **Rank**: the seed's algorithm — min–max normalization over the
//!   ranked rows, a full sort by score descending with ties broken by
//!   candidate id, then top-k, threshold or greedy budget selection.

use std::collections::BTreeMap;

use autocomp::rank::{RankingPolicy, TraitWeight, RANKED_PREFIX_MIN};
use autocomp::{
    Candidate, CandidateFilter, CandidateId, CycleReport, FilterDecision, FleetObservation,
    TraitComputer, TraitDirection,
};

/// One reference-ranked candidate.
pub struct RefEntry {
    pub id: CandidateId,
    pub score: f64,
    pub selected: bool,
}

/// What the reference cycle decides over one observation.
pub struct RefCycle {
    /// Candidates the observation yields.
    pub generated: usize,
    /// Filter drops in candidate order, then NaN drops in candidate order.
    pub dropped: Vec<(CandidateId, String)>,
    /// Every ranked candidate, best first.
    pub ranked: Vec<RefEntry>,
}

/// Runs the reference cycle over `observation` at `now_ms`.
pub fn reference_cycle(
    observation: &FleetObservation,
    filters: &[Box<dyn CandidateFilter>],
    traits: &[Box<dyn TraitComputer>],
    policy: &RankingPolicy,
    now_ms: u64,
) -> RefCycle {
    let candidates = observation.to_candidates();
    let generated = candidates.len();
    let mut dropped = Vec::new();
    let mut kept = Vec::new();
    for candidate in candidates {
        let verdict = filters
            .iter()
            .find_map(|f| match f.evaluate(&candidate.view(), now_ms) {
                FilterDecision::Drop(reason) => Some(format!("{}: {reason}", f.name())),
                FilterDecision::Keep => None,
            });
        match verdict {
            Some(reason) => dropped.push((candidate.id, reason)),
            None => kept.push(candidate),
        }
    }

    let mut names: Vec<&str> = Vec::new();
    let mut directions = BTreeMap::new();
    for t in traits {
        if !names.contains(&t.name()) {
            names.push(t.name());
        }
        directions.insert(t.name().to_string(), t.direction());
    }
    let mut rows = Vec::new();
    let mut maps = Vec::new();
    for candidate in kept {
        let mut values = BTreeMap::new();
        for t in traits {
            values.insert(t.name().to_string(), t.compute(&candidate.stats));
        }
        match names.iter().find(|n| values[**n].is_nan()) {
            Some(name) => dropped.push((candidate.id, format!("orient: trait '{name}' is NaN"))),
            None => {
                rows.push(candidate);
                maps.push(values);
            }
        }
    }
    let ranked = ref_rank_and_select(&rows, &maps, &directions, policy);
    RefCycle {
        generated,
        dropped,
        ranked,
    }
}

/// The first way `report` departs from `reference`, or `None`: generated
/// count, drop trail, ranked count, the report's top rows in exact rank
/// order (ids, score bits, selection), the selected candidates in rank
/// order, and every ranked candidate's score.
pub fn reference_difference(report: &CycleReport, reference: &RefCycle) -> Option<String> {
    fn differ<T: PartialEq + std::fmt::Debug>(what: &str, a: &T, b: &T) -> Option<String> {
        (a != b).then(|| format!("{what}: pipeline {a:?} != reference {b:?}"))
    }
    let dropped: Vec<(&CandidateId, &str)> =
        report.dropped.iter().map(|(id, r)| (id, &**r)).collect();
    let ref_dropped: Vec<(&CandidateId, &str)> = reference
        .dropped
        .iter()
        .map(|(id, r)| (id, r.as_str()))
        .collect();
    let head = || {
        report
            .ranked
            .head()
            .iter()
            .zip(&reference.ranked)
            .take(RANKED_PREFIX_MIN)
            .enumerate()
            .find_map(|(pos, (e, r))| {
                differ("head id", &e.id, &r.id)
                    .or_else(|| differ("head score bits", &e.score.to_bits(), &r.score.to_bits()))
                    .or_else(|| differ("head selection", &e.selected, &r.selected))
                    .map(|d| format!("{d} (rank {})", pos + 1))
            })
    };
    let selected = || {
        let ours: Vec<CandidateId> = report.ranked.selected().map(|e| e.id.clone()).collect();
        let theirs: Vec<CandidateId> = reference
            .ranked
            .iter()
            .filter(|e| e.selected)
            .map(|e| e.id.clone())
            .collect();
        differ("selected", &ours, &theirs)
    };
    let scores = || {
        let mut ours: Vec<(CandidateId, u64)> = report
            .ranked
            .iter()
            .map(|e| (e.id, e.score.to_bits()))
            .collect();
        let mut theirs: Vec<(CandidateId, u64)> = reference
            .ranked
            .iter()
            .map(|e| (e.id.clone(), e.score.to_bits()))
            .collect();
        ours.sort();
        theirs.sort();
        differ("ranked scores", &ours, &theirs)
    };
    differ("generated", &report.generated, &reference.generated)
        .or_else(|| differ("dropped", &dropped, &ref_dropped))
        .or_else(|| differ("ranked len", &report.ranked.len(), &reference.ranked.len()))
        .or_else(head)
        .or_else(selected)
        .or_else(scores)
}

// ---------------------------------------------------------------------
// The seed's rank: full sort over row-oriented maps.
// ---------------------------------------------------------------------

fn ref_normalize(values: &[f64]) -> Vec<f64> {
    if values.is_empty() {
        return Vec::new();
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    values
        .iter()
        .map(|v| {
            if span.abs() < f64::EPSILON {
                0.5
            } else {
                (v - min) / span
            }
        })
        .collect()
}

fn ref_column(maps: &[BTreeMap<String, f64>], name: &str) -> Vec<f64> {
    maps.iter().map(|m| m[name]).collect()
}

fn ref_moop_scores(
    maps: &[BTreeMap<String, f64>],
    directions: &BTreeMap<String, TraitDirection>,
    weights: &[TraitWeight],
) -> Vec<f64> {
    let mut scores = vec![0.0; maps.len()];
    for w in weights {
        let sign = match directions[&w.trait_name] {
            TraitDirection::Benefit => 1.0,
            TraitDirection::Cost => -1.0,
        };
        let normalized = ref_normalize(&ref_column(maps, &w.trait_name));
        for (s, n) in scores.iter_mut().zip(normalized) {
            *s += sign * w.weight * n;
        }
    }
    scores
}

fn ref_sorted(candidates: &[Candidate], scores: &[f64]) -> Vec<RefEntry> {
    let mut entries: Vec<RefEntry> = candidates
        .iter()
        .zip(scores)
        .map(|(c, &score)| RefEntry {
            id: c.id.clone(),
            score,
            selected: false,
        })
        .collect();
    entries.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("no NaN in reference inputs")
            .then_with(|| a.id.cmp(&b.id))
    });
    entries
}

/// Greedy budget fit over a best-first order.
fn fit_budget(
    entries: &mut [RefEntry],
    cost_of: &BTreeMap<CandidateId, f64>,
    budget: f64,
    cap: usize,
) {
    let (mut spent, mut taken) = (0.0, 0);
    for e in entries.iter_mut() {
        let cost = cost_of[&e.id];
        if taken < cap && spent + cost <= budget {
            e.selected = true;
            spent += cost;
            taken += 1;
        }
    }
}

/// The seed's `rank_and_select`, minus note strings.
pub fn ref_rank_and_select(
    candidates: &[Candidate],
    maps: &[BTreeMap<String, f64>],
    directions: &BTreeMap<String, TraitDirection>,
    policy: &RankingPolicy,
) -> Vec<RefEntry> {
    let costs = |cost_trait: &str| -> BTreeMap<CandidateId, f64> {
        candidates
            .iter()
            .zip(ref_column(maps, cost_trait))
            .map(|(c, cost)| (c.id.clone(), cost))
            .collect()
    };
    match policy {
        RankingPolicy::Threshold {
            trait_name,
            min_value,
            max_k,
        } => {
            let mut entries = ref_sorted(candidates, &ref_column(maps, trait_name));
            let cap = max_k.unwrap_or(usize::MAX);
            let mut taken = 0;
            for e in entries.iter_mut() {
                if e.score >= *min_value && taken < cap {
                    e.selected = true;
                    taken += 1;
                }
            }
            entries
        }
        RankingPolicy::Moop { weights, k } => {
            let scores = ref_moop_scores(maps, directions, weights);
            let mut entries = ref_sorted(candidates, &scores);
            for (rank, e) in entries.iter_mut().enumerate() {
                e.selected = rank < *k;
            }
            entries
        }
        RankingPolicy::BudgetedMoop {
            weights,
            cost_trait,
            budget,
            max_k,
        } => {
            let scores = ref_moop_scores(maps, directions, weights);
            let mut entries = ref_sorted(candidates, &scores);
            let cap = max_k.unwrap_or(usize::MAX);
            fit_budget(&mut entries, &costs(cost_trait), *budget, cap);
            entries
        }
        RankingPolicy::QuotaAwareMoop {
            benefit_trait,
            cost_trait,
            k,
            budget,
        } => {
            let benefit_n = ref_normalize(&ref_column(maps, benefit_trait));
            let cost_n = ref_normalize(&ref_column(maps, cost_trait));
            let scores: Vec<f64> = candidates
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let util = c.stats.quota.map(|q| q.utilization()).unwrap_or(0.0);
                    let w1 = (0.5 * (1.0 + util)).min(1.0);
                    let w2 = 1.0 - w1;
                    w1 * benefit_n[i] - w2 * cost_n[i]
                })
                .collect();
            let mut entries = ref_sorted(candidates, &scores);
            match (k, budget) {
                (Some(k), _) => {
                    for (rank, e) in entries.iter_mut().enumerate() {
                        e.selected = rank < *k;
                    }
                }
                (None, Some(budget)) => {
                    fit_budget(&mut entries, &costs(cost_trait), *budget, usize::MAX)
                }
                (None, None) => panic!("reference policies always carry k or budget"),
            }
            entries
        }
    }
}
