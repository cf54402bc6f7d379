//! Reference-location grids and the [`LocationId`] newtype.
//!
//! The paper's testbed (Fig. 5) profiles 28 reference locations laid out
//! on a 7-column × 4-row grid in a 40.8 m × 16 m office hall, numbered
//! 1–28 row-major with row 1 at the top. [`ReferenceGrid`] reproduces
//! that layout (parametrically, so tests can build smaller worlds) and
//! is the shared coordinate authority for every other crate.

use crate::vec2::Vec2;
use serde::{Deserialize, Serialize};

/// Identifier of a reference location, 1-based as in the paper's Fig. 5.
///
/// # Examples
///
/// ```
/// use moloc_geometry::grid::LocationId;
///
/// let id = LocationId::new(7);
/// assert_eq!(id.get(), 7);
/// assert_eq!(id.to_string(), "L7");
/// ```
///
/// It serializes as the bare id. Deserializing refuses `0`, as
/// [`LocationId::new`] does, so no database or RLM read from JSON can
/// carry an id that [`LocationId::index`] would underflow on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct LocationId(u32);

impl<'de> Deserialize<'de> for LocationId {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match u32::deserialize(deserializer)? {
            0 => Err(serde::de::Error::custom("LocationId is 1-based")),
            id => Ok(Self(id)),
        }
    }
}

impl LocationId {
    /// Creates an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is zero: ids are 1-based to match the paper.
    pub fn new(id: u32) -> Self {
        assert!(id > 0, "LocationId is 1-based");
        Self(id)
    }

    /// The raw 1-based id.
    pub fn get(&self) -> u32 {
        self.0
    }

    /// The 0-based index into dense per-location arrays.
    pub fn index(&self) -> usize {
        (self.0 - 1) as usize
    }

    /// Builds an id from a 0-based dense index.
    pub fn from_index(index: usize) -> Self {
        Self::new(index as u32 + 1)
    }
}

impl std::fmt::Display for LocationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A rectangular grid of reference locations.
///
/// Ids increase row-major: id 1 is `(row 0, col 0)` at `origin`, id 2 is
/// `(row 0, col 1)` at `origin + (dx, 0)`, and row `r` sits at
/// `origin.y - r·dy` so row 0 is the **top** row as in Fig. 5.
///
/// # Examples
///
/// ```
/// use moloc_geometry::grid::{LocationId, ReferenceGrid};
/// use moloc_geometry::Vec2;
///
/// let grid = ReferenceGrid::new(Vec2::new(3.0, 14.0), 7, 4, 5.8, 4.0)?;
/// assert_eq!(grid.len(), 28);
/// assert_eq!(grid.position(LocationId::new(1)), Vec2::new(3.0, 14.0));
/// # Ok::<(), moloc_geometry::grid::InvalidGridError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceGrid {
    origin: Vec2,
    cols: u32,
    rows: u32,
    dx: f64,
    dy: f64,
}

/// Error constructing a [`ReferenceGrid`] with no cells or non-positive
/// spacing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidGridError;

impl std::fmt::Display for InvalidGridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "grid needs at least one row and column and positive spacing"
        )
    }
}

impl std::error::Error for InvalidGridError {}

impl ReferenceGrid {
    /// Creates a grid with `cols × rows` locations spaced `dx` × `dy`
    /// meters, `origin` being the position of id 1 (top-left).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidGridError`] for empty grids or non-positive
    /// spacing.
    pub fn new(
        origin: Vec2,
        cols: u32,
        rows: u32,
        dx: f64,
        dy: f64,
    ) -> Result<Self, InvalidGridError> {
        if cols == 0 || rows == 0 || dx <= 0.0 || dy <= 0.0 {
            return Err(InvalidGridError);
        }
        Ok(Self {
            origin,
            cols,
            rows,
            dx,
            dy,
        })
    }

    /// Number of columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Column spacing in meters.
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// Row spacing in meters.
    pub fn dy(&self) -> f64 {
        self.dy
    }

    /// Total number of reference locations.
    pub fn len(&self) -> usize {
        (self.cols * self.rows) as usize
    }

    /// Whether the grid is empty (never true for a constructed grid).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` belongs to this grid.
    pub fn contains(&self, id: LocationId) -> bool {
        (id.get() as usize) <= self.len()
    }

    /// The `(row, col)` of an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn row_col(&self, id: LocationId) -> (u32, u32) {
        assert!(self.contains(id), "{id} out of range for grid");
        let idx = id.index() as u32;
        (idx / self.cols, idx % self.cols)
    }

    /// The id at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn id_at(&self, row: u32, col: u32) -> LocationId {
        assert!(row < self.rows && col < self.cols, "cell out of range");
        LocationId::new(row * self.cols + col + 1)
    }

    /// The position of a reference location.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn position(&self, id: LocationId) -> Vec2 {
        let (row, col) = self.row_col(id);
        Vec2::new(
            self.origin.x + col as f64 * self.dx,
            self.origin.y - row as f64 * self.dy,
        )
    }

    /// Iterates over all ids in increasing order.
    pub fn ids(&self) -> impl Iterator<Item = LocationId> {
        (1..=self.len() as u32).map(LocationId::new)
    }

    /// The id of the reference location nearest to `p` (ties broken by
    /// lower id). A NaN distance — a NaN coordinate in `p` — ranks
    /// *above* every real distance, so it can never win the argmin; an
    /// all-NaN query deterministically falls back to the lowest id
    /// instead of panicking the old `partial_cmp(...).expect(...)`
    /// comparator.
    pub fn nearest(&self, p: Vec2) -> LocationId {
        self.ids()
            .min_by(|&a, &b| {
                let (da, db) = (self.position(a).dist(p), self.position(b).dist(p));
                match (da.is_nan(), db.is_nan()) {
                    (true, true) => std::cmp::Ordering::Equal,
                    (true, false) => std::cmp::Ordering::Greater,
                    (false, true) => std::cmp::Ordering::Less,
                    (false, false) => da.total_cmp(&db),
                }
            })
            .expect("grid is non-empty")
    }

    /// Euclidean (straight-line) distance between two reference
    /// locations.
    pub fn distance(&self, a: LocationId, b: LocationId) -> f64 {
        self.position(a).dist(self.position(b))
    }

    /// Compass bearing from `a` to `b`, `None` when `a == b`.
    pub fn bearing_deg(&self, a: LocationId, b: LocationId) -> Option<f64> {
        self.position(a).bearing_deg_to_checked(self.position(b))
    }

    /// The 4-neighborhood (up/down/left/right) of `id` within the grid.
    pub fn neighbors4(&self, id: LocationId) -> Vec<LocationId> {
        let (row, col) = self.row_col(id);
        let mut out = Vec::with_capacity(4);
        if row > 0 {
            out.push(self.id_at(row - 1, col));
        }
        if row + 1 < self.rows {
            out.push(self.id_at(row + 1, col));
        }
        if col > 0 {
            out.push(self.id_at(row, col - 1));
        }
        if col + 1 < self.cols {
            out.push(self.id_at(row, col + 1));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_grid() -> ReferenceGrid {
        ReferenceGrid::new(Vec2::new(3.0, 14.0), 7, 4, 5.8, 4.0).unwrap()
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn location_id_zero_panics() {
        let _ = LocationId::new(0);
    }

    #[test]
    fn id_index_round_trip() {
        for raw in 1..100 {
            let id = LocationId::new(raw);
            assert_eq!(LocationId::from_index(id.index()), id);
        }
    }

    #[test]
    fn grid_rejects_degenerate() {
        assert!(ReferenceGrid::new(Vec2::ZERO, 0, 4, 1.0, 1.0).is_err());
        assert!(ReferenceGrid::new(Vec2::ZERO, 4, 4, 0.0, 1.0).is_err());
        assert!(ReferenceGrid::new(Vec2::ZERO, 4, 4, 1.0, -1.0).is_err());
    }

    #[test]
    fn paper_layout_has_28_locations() {
        let g = paper_grid();
        assert_eq!(g.len(), 28);
        assert_eq!(g.ids().count(), 28);
    }

    #[test]
    fn row_major_numbering_matches_fig5() {
        let g = paper_grid();
        // Fig. 5: row 1 holds ids 1–7, row 2 holds 8–14, etc.
        assert_eq!(g.row_col(LocationId::new(1)), (0, 0));
        assert_eq!(g.row_col(LocationId::new(7)), (0, 6));
        assert_eq!(g.row_col(LocationId::new(8)), (1, 0));
        assert_eq!(g.row_col(LocationId::new(15)), (2, 0));
        assert_eq!(g.row_col(LocationId::new(28)), (3, 6));
        assert_eq!(g.id_at(2, 0), LocationId::new(15));
    }

    #[test]
    fn top_row_has_highest_y() {
        let g = paper_grid();
        let top = g.position(LocationId::new(1));
        let bottom = g.position(LocationId::new(22));
        assert!(top.y > bottom.y);
        assert_eq!(top.x, bottom.x);
        assert!((top.y - bottom.y - 12.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_recovers_each_location() {
        let g = paper_grid();
        for id in g.ids() {
            let p = g.position(id) + Vec2::new(0.3, -0.2);
            assert_eq!(g.nearest(p), id);
        }
    }

    #[test]
    fn distance_and_bearing() {
        let g = paper_grid();
        // 1 → 2 is one column east.
        assert!((g.distance(LocationId::new(1), LocationId::new(2)) - 5.8).abs() < 1e-12);
        assert!(
            (g.bearing_deg(LocationId::new(1), LocationId::new(2))
                .unwrap()
                - 90.0)
                .abs()
                < 1e-9
        );
        // 1 → 8 is one row south.
        assert!(
            (g.bearing_deg(LocationId::new(1), LocationId::new(8))
                .unwrap()
                - 180.0)
                .abs()
                < 1e-9
        );
        assert_eq!(g.bearing_deg(LocationId::new(3), LocationId::new(3)), None);
    }

    #[test]
    fn neighbors4_at_corner_edge_center() {
        let g = paper_grid();
        assert_eq!(g.neighbors4(LocationId::new(1)).len(), 2); // corner
        assert_eq!(g.neighbors4(LocationId::new(4)).len(), 3); // top edge
        assert_eq!(g.neighbors4(LocationId::new(10)).len(), 4); // interior
        let n = g.neighbors4(LocationId::new(10));
        assert!(n.contains(&LocationId::new(3)));
        assert!(n.contains(&LocationId::new(17)));
        assert!(n.contains(&LocationId::new(9)));
        assert!(n.contains(&LocationId::new(11)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn position_of_foreign_id_panics() {
        let g = paper_grid();
        let _ = g.position(LocationId::new(29));
    }

    #[test]
    fn nearest_with_nan_coordinates_does_not_panic() {
        let g = paper_grid();
        // Every distance to a NaN point is NaN; the argmin must fall
        // back to the deterministic lowest-id pick, not panic.
        assert_eq!(g.nearest(Vec2::new(f64::NAN, f64::NAN)), LocationId::new(1));
        assert_eq!(g.nearest(Vec2::new(f64::NAN, 0.0)), LocationId::new(1));
        // A NaN never shadows a real nearest answer when distances mix
        // (cannot happen from a single query point, but the comparator
        // contract must hold for any future caller).
        let p = g.position(LocationId::new(5));
        assert_eq!(g.nearest(p), LocationId::new(5));
    }
}
