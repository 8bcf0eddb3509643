//! Columnar trait storage for the orient/decide hot path.
//!
//! At fleet scale (§6–§7: ~21K tables growing toward 100K) the decide
//! phase is bounded by framework overhead, not compaction itself. The seed
//! representation — one `BTreeMap<String, f64>` per candidate — made every
//! trait lookup a string-keyed tree probe and every [`RankedEntry`]
//! a full map clone. [`TraitMatrix`] replaces that with interning: trait
//! names are resolved once per cycle into dense [`TraitId`]s, and values
//! live in a single flat `Vec<f64>` laid out **column-major**
//! (`values[trait × rows + candidate]`), so normalization, scalarization
//! and cost lookups are index arithmetic over contiguous columns.
//!
//! [`RankedEntry`]: crate::rank::RankedEntry

use std::collections::BTreeMap;

use crate::error::AutoCompError;
use crate::traits::TraitDirection;
use crate::Result;

/// Dense per-cycle identifier of an interned trait name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraitId(u32);

impl TraitId {
    /// Column index backing this id.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Columnar candidates × traits value matrix with interned trait names.
///
/// Rows are candidates (in candidate-slice order), columns are traits (in
/// interning order). A trait's direction is `None` when the producer did
/// not declare one; policies that need a direction (MOOP weights) treat a
/// missing direction as an unknown trait, mirroring the seed semantics of
/// the separate `directions` map.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraitMatrix {
    names: Vec<String>,
    directions: Vec<Option<TraitDirection>>,
    /// Column-major values: `values[col * rows + row]`.
    values: Vec<f64>,
    rows: usize,
}

impl TraitMatrix {
    /// Creates an empty matrix for `rows` candidates.
    pub fn new(rows: usize) -> Self {
        TraitMatrix {
            names: Vec::new(),
            directions: Vec::new(),
            values: Vec::new(),
            rows,
        }
    }

    /// Number of candidate rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of interned trait columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.names.len()
    }

    /// Interns `name`, allocating a zero-filled column on first sight.
    /// Re-interning an existing name returns its id; a `Some` direction
    /// overwrites the stored one (last writer wins, like the seed's
    /// `directions.insert`).
    pub fn intern(&mut self, name: &str, direction: Option<TraitDirection>) -> TraitId {
        if let Some(id) = self.trait_id(name) {
            if direction.is_some() {
                self.directions[id.index()] = direction;
            }
            return id;
        }
        let id = TraitId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.directions.push(direction);
        self.values.extend(std::iter::repeat_n(0.0, self.rows));
        id
    }

    /// Resolves a trait name to its interned id. The per-cycle trait count
    /// is small (a handful of computers), so a linear scan beats hashing.
    pub fn trait_id(&self, name: &str) -> Option<TraitId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| TraitId(i as u32))
    }

    /// Name of an interned trait.
    pub fn trait_name(&self, id: TraitId) -> &str {
        &self.names[id.index()]
    }

    /// Declared direction of an interned trait, if any.
    pub fn direction(&self, id: TraitId) -> Option<TraitDirection> {
        self.directions[id.index()]
    }

    /// All interned ids, in interning order.
    pub fn trait_ids(&self) -> impl Iterator<Item = TraitId> {
        (0..self.names.len() as u32).map(TraitId)
    }

    /// Interned ids sorted by trait name — the rendering order reports
    /// use so output matches the seed's alphabetical `BTreeMap` iteration.
    pub fn trait_ids_by_name(&self) -> Vec<TraitId> {
        let mut ids: Vec<TraitId> = self.trait_ids().collect();
        ids.sort_by(|a, b| self.names[a.index()].cmp(&self.names[b.index()]));
        ids
    }

    /// One trait's values for all candidates, as a contiguous column.
    #[inline]
    pub fn col(&self, id: TraitId) -> &[f64] {
        let start = id.index() * self.rows;
        &self.values[start..start + self.rows]
    }

    /// Mutable access to one trait's column (the orient step writes
    /// patched slots through it).
    #[inline]
    pub fn col_mut(&mut self, id: TraitId) -> &mut [f64] {
        let start = id.index() * self.rows;
        &mut self.values[start..start + self.rows]
    }

    /// One candidate's value for one trait.
    #[inline]
    pub fn value(&self, row: usize, id: TraitId) -> f64 {
        self.values[id.index() * self.rows + row]
    }

    /// An all-zero matrix of `rows` rows over this one's traits — how
    /// the decide state lays out its columns for a new slot layout.
    pub(crate) fn resized(&self, rows: usize) -> Self {
        TraitMatrix {
            names: self.names.clone(),
            directions: self.directions.clone(),
            values: vec![0.0; self.names.len() * rows],
            rows,
        }
    }

    /// A matrix over this one's traits holding the values of `rows`, in
    /// that order.
    pub(crate) fn gather(&self, rows: impl Iterator<Item = usize> + Clone) -> Self {
        let column = |id| rows.clone().map(move |row| self.value(row, id));
        TraitMatrix {
            values: self.trait_ids().flat_map(column).collect(),
            rows: rows.clone().count(),
            ..self.resized(0)
        }
    }

    /// Builds a matrix from the seed's row-oriented representation: one
    /// string-keyed map per candidate plus a shared direction map. The
    /// **first** candidate's keys define the columns; a later candidate
    /// missing one of those keys is an
    /// [`AutoCompError::UnknownTrait`], matching the seed's per-column
    /// extraction error, while keys that appear only in later candidates
    /// are ignored (the seed likewise never read them unless a policy
    /// asked, which then failed with the same error).
    pub fn from_maps(
        maps: &[BTreeMap<String, f64>],
        directions: &BTreeMap<String, TraitDirection>,
    ) -> Result<Self> {
        let mut matrix = TraitMatrix::new(maps.len());
        let Some(first) = maps.first() else {
            for (name, dir) in directions {
                matrix.intern(name, Some(*dir));
            }
            return Ok(matrix);
        };
        // Direction-only names with no values stay out of the matrix,
        // like seed maps that never carried them.
        for name in first.keys() {
            matrix.intern(name, directions.get(name).copied());
        }
        for id in matrix.trait_ids().collect::<Vec<_>>() {
            let name = matrix.trait_name(id).to_string();
            let col = matrix.col_mut(id);
            for (row, map) in maps.iter().enumerate() {
                col[row] = *map
                    .get(&name)
                    .ok_or_else(|| AutoCompError::UnknownTrait(name.clone()))?;
            }
        }
        Ok(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn maps(rows: &[&[(&str, f64)]]) -> Vec<BTreeMap<String, f64>> {
        rows.iter()
            .map(|row| row.iter().map(|(k, v)| (k.to_string(), *v)).collect())
            .collect()
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut m = TraitMatrix::new(3);
        let a = m.intern("benefit", Some(TraitDirection::Benefit));
        let b = m.intern("cost", Some(TraitDirection::Cost));
        assert_ne!(a, b);
        assert_eq!(m.intern("benefit", None), a);
        assert_eq!(m.width(), 2);
        assert_eq!(m.trait_id("cost"), Some(b));
        assert_eq!(m.trait_id("nope"), None);
        assert_eq!(m.direction(a), Some(TraitDirection::Benefit));
    }

    #[test]
    fn columns_are_contiguous_and_indexed() {
        let mut m = TraitMatrix::new(3);
        let a = m.intern("a", None);
        let b = m.intern("b", None);
        m.col_mut(a).copy_from_slice(&[1.0, 2.0, 3.0]);
        m.col_mut(b).copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(m.col(a), &[1.0, 2.0, 3.0]);
        assert_eq!(m.value(1, b), 5.0);
    }

    #[test]
    fn from_maps_round_trips_and_errors_on_missing_keys() {
        let dirs = [("x".to_string(), TraitDirection::Benefit)]
            .into_iter()
            .collect();
        let m = TraitMatrix::from_maps(&maps(&[&[("x", 1.0)], &[("x", 2.0)]]), &dirs).unwrap();
        assert_eq!(m.col(m.trait_id("x").unwrap()), &[1.0, 2.0]);
        assert_eq!(
            m.direction(m.trait_id("x").unwrap()),
            Some(TraitDirection::Benefit)
        );

        let ragged = maps(&[&[("x", 1.0)], &[("y", 2.0)]]);
        assert!(matches!(
            TraitMatrix::from_maps(&ragged, &dirs),
            Err(AutoCompError::UnknownTrait(_))
        ));
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = TraitMatrix::from_maps(&[], &BTreeMap::new()).unwrap();
        assert_eq!(m.rows(), 0);
        assert_eq!(m.width(), 0);
    }
}
