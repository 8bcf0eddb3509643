//! Golden parity: the columnar decide path must reproduce the seed
//! semantics — identical selections, identical scores, and identical
//! best-first ordering over the materialized prefix — across all four
//! ranking policies. The reference implementation is the seed's
//! row-oriented algorithm (string-keyed trait maps, full fleet sort),
//! kept in `common/reference.rs` as an executable specification.

use std::collections::BTreeMap;

use autocomp::rank::{rank_and_select, RankingPolicy, TraitWeight, RANKED_PREFIX_MIN};
use autocomp::{Candidate, CandidateId, CandidateStats, QuotaSignal, TraitDirection, TraitMatrix};

mod common;
use common::reference::ref_rank_and_select;

// ---------------------------------------------------------------------
// Deterministic synthetic fleet.
// ---------------------------------------------------------------------

fn fleet(n: u64) -> (Vec<Candidate>, Vec<BTreeMap<String, f64>>) {
    let candidates: Vec<Candidate> = (0..n)
        .map(|i| Candidate {
            id: CandidateId::table(i),
            database: format!("db{}", i % 50).into(),
            table_name: format!("t{i}").into(),
            compaction_enabled: true,
            is_intermediate: false,
            stats: CandidateStats {
                small_file_count: (i * 37) % 5000,
                small_bytes: ((i * 97) % 4096) << 20,
                quota: Some(QuotaSignal {
                    used: (i * 13) % 1000,
                    total: 1000,
                }),
                ..CandidateStats::default()
            },
        })
        .collect();
    let maps = candidates
        .iter()
        .map(|c| {
            [
                ("benefit".to_string(), c.stats.small_file_count as f64),
                (
                    "cost".to_string(),
                    c.stats.small_bytes as f64 / (500u64 << 30) as f64 * 64.0,
                ),
                // Deliberately collision-heavy so ties exercise the
                // id-tiebreak ordering.
                ("tied".to_string(), ((c.id.table_uid * 37) % 7) as f64),
            ]
            .into_iter()
            .collect()
        })
        .collect();
    (candidates, maps)
}

fn directions() -> BTreeMap<String, TraitDirection> {
    [
        ("benefit".to_string(), TraitDirection::Benefit),
        ("cost".to_string(), TraitDirection::Cost),
        ("tied".to_string(), TraitDirection::Benefit),
    ]
    .into_iter()
    .collect()
}

/// Asserts the columnar result matches the reference: same selected set
/// (in the same best-first order), same per-candidate scores, and the
/// materialized prefix in the reference's exact order.
fn assert_parity(policy: &RankingPolicy, n: u64) {
    let (candidates, maps) = fleet(n);
    let dirs = directions();
    let matrix = TraitMatrix::from_maps(&maps, &dirs).expect("uniform maps");

    let reference = ref_rank_and_select(&candidates, &maps, &dirs, policy);
    let columnar = rank_and_select(&candidates, &matrix, policy).expect("policy is valid");

    assert_eq!(columnar.len(), reference.len(), "entry count");

    // Scores must be bit-identical per candidate.
    let ref_score: BTreeMap<&CandidateId, f64> =
        reference.iter().map(|e| (&e.id, e.score)).collect();
    for e in &columnar {
        assert_eq!(
            e.score.to_bits(),
            ref_score[&e.id].to_bits(),
            "score of {} diverged",
            e.id
        );
    }

    // Selected sets must match, in the same (best-first) order.
    let ref_selected: Vec<&CandidateId> = reference
        .iter()
        .filter(|e| e.selected)
        .map(|e| &e.id)
        .collect();
    let col_selected: Vec<&CandidateId> = columnar
        .iter()
        .filter(|e| e.selected)
        .map(|e| &e.id)
        .collect();
    assert_eq!(col_selected, ref_selected, "selection diverged");

    // The materialized prefix must be in the reference's exact order.
    let prefix = ref_selected
        .len()
        .max(RANKED_PREFIX_MIN)
        .min(columnar.len());
    for (pos, (c, r)) in columnar.iter().zip(&reference).take(prefix).enumerate() {
        assert_eq!(c.id, r.id, "prefix order diverged at rank {}", pos + 1);
    }

    // Every candidate appears exactly once.
    let mut ids: Vec<&CandidateId> = columnar.iter().map(|e| &e.id).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), candidates.len(), "duplicate or missing entries");
}

// ---------------------------------------------------------------------
// The four policies, across fleet sizes that cross the prefix threshold.
// ---------------------------------------------------------------------

const SIZES: [u64; 4] = [7, 100, 1_000, 5_000];

#[test]
fn threshold_parity() {
    for n in SIZES {
        assert_parity(
            &RankingPolicy::Threshold {
                trait_name: "benefit".into(),
                min_value: 2500.0,
                max_k: None,
            },
            n,
        );
        assert_parity(
            &RankingPolicy::Threshold {
                trait_name: "benefit".into(),
                min_value: 100.0,
                max_k: Some(17),
            },
            n,
        );
    }
}

#[test]
fn moop_parity() {
    for n in SIZES {
        for k in [1usize, 10, 100, 100_000] {
            assert_parity(
                &RankingPolicy::Moop {
                    weights: vec![
                        TraitWeight::new("benefit", 0.7),
                        TraitWeight::new("cost", 0.3),
                    ],
                    k,
                },
                n,
            );
        }
    }
}

#[test]
fn moop_parity_with_heavy_ties() {
    for n in SIZES {
        assert_parity(
            &RankingPolicy::Moop {
                weights: vec![TraitWeight::new("tied", 1.0)],
                k: 25,
            },
            n,
        );
    }
}

#[test]
fn budgeted_moop_parity() {
    for n in SIZES {
        for budget in [0.0, 226.0, 1e9] {
            assert_parity(
                &RankingPolicy::BudgetedMoop {
                    weights: vec![
                        TraitWeight::new("benefit", 0.7),
                        TraitWeight::new("cost", 0.3),
                    ],
                    cost_trait: "cost".into(),
                    budget,
                    max_k: None,
                },
                n,
            );
        }
        assert_parity(
            &RankingPolicy::BudgetedMoop {
                weights: vec![
                    TraitWeight::new("benefit", 0.7),
                    TraitWeight::new("cost", 0.3),
                ],
                cost_trait: "cost".into(),
                budget: 500.0,
                max_k: Some(13),
            },
            n,
        );
    }
}

#[test]
fn quota_aware_parity() {
    for n in SIZES {
        assert_parity(
            &RankingPolicy::QuotaAwareMoop {
                benefit_trait: "benefit".into(),
                cost_trait: "cost".into(),
                k: Some(50),
                budget: None,
            },
            n,
        );
        assert_parity(
            &RankingPolicy::QuotaAwareMoop {
                benefit_trait: "benefit".into(),
                cost_trait: "cost".into(),
                k: None,
                budget: Some(300.0),
            },
            n,
        );
    }
}
