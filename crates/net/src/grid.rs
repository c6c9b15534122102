//! Flat spatial grid index: O(1) neighbor queries over city-scale point sets.
//!
//! The paper's motivating deployment is 320,000 smart poles across Los
//! Angeles; resolving its Figure-1 reliance structure pairwise is an
//! O(n·m) wall. [`SpatialGrid`] is the standard flat-grid answer (dense
//! cell buckets over point handles, the `flat_spatial` pattern): points
//! are bucketed once into square cells of side `cell_m`, and a radius
//! query scans only the 3×3 (or fewer) cell neighborhood the disc
//! overlaps — O(1) in the city size for query radii at most the cell
//! side.
//!
//! Two properties matter more than raw speed here:
//!
//! * **Determinism.** [`within_into`](SpatialGrid::within_into) returns
//!   candidates in ascending point-index order for equal inputs, always —
//!   the resolvers' tie-breaking and insertion orders (and therefore the
//!   run digests) depend on it.
//! * **Exactness under culling.** Query results are distance-filtered, so
//!   a query at the pathloss cull radius (see
//!   [`crate::coverage::RadioParams::cull_radius_m`]) returns *every*
//!   pair that could possibly form a usable link under any realizable
//!   shadowing draw. The grid-backed resolvers are therefore bit-identical
//!   to their pairwise reference oracles, which `tests/grid_differential.rs`
//!   proves across seeds × densities × radio parameter sets.

use crate::topology::Point;

/// Hard ceiling on allocated cells; beyond it the cell side is grown so
/// huge sparse extents cannot exhaust memory. 4M cells ≈ 36 MB of `u32`
/// bookkeeping at the limit — far beyond any city this crate models.
const MAX_CELLS: usize = 1 << 22;

/// A dense-bucket spatial grid over an immutable point set.
///
/// Build once with [`build`](SpatialGrid::build), query many times. The
/// grid stores a copy of the points (16 bytes each) so query results can
/// be distance-filtered without the caller re-supplying the slice.
#[derive(Clone, Debug)]
pub struct SpatialGrid {
    points: Vec<Point>,
    min_x: f64,
    min_y: f64,
    cell_m: f64,
    nx: usize,
    ny: usize,
    /// CSR layout: `starts[c]..starts[c + 1]` indexes `entries` for cell
    /// `c`; entries within a cell are ascending point indices.
    starts: Vec<u32>,
    entries: Vec<u32>,
}

impl SpatialGrid {
    /// Buckets `points` into square cells of side (at least) `cell_m`.
    ///
    /// The cell side is grown automatically if the bounding box would
    /// otherwise need more than `MAX_CELLS` cells, so degenerate inputs
    /// (a tiny radius over a continent) stay bounded. An empty point set
    /// builds an empty grid whose queries return nothing.
    ///
    /// # Panics
    ///
    /// Panics if `cell_m` is not positive and finite, or any coordinate
    /// is non-finite — the deterministic digest discipline upstream
    /// cannot tolerate NaN geometry.
    pub fn build(points: &[Point], cell_m: f64) -> SpatialGrid {
        assert!(cell_m > 0.0 && cell_m.is_finite(), "cell size must be positive and finite");
        assert!(
            points.len() <= u32::MAX as usize,
            "grid indexes points with u32 handles"
        );
        if points.is_empty() {
            return SpatialGrid {
                points: Vec::new(),
                min_x: 0.0,
                min_y: 0.0,
                cell_m,
                nx: 0,
                ny: 0,
                starts: vec![0],
                entries: Vec::new(),
            };
        }
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for p in points {
            assert!(p.x.is_finite() && p.y.is_finite(), "grid points must be finite");
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        // Grow the cell side until the bounding box fits the cell budget.
        // Deterministic: a pure function of the bbox and the requested
        // side, independent of point order.
        let mut cell = cell_m;
        let (mut nx, mut ny) = Self::dims(min_x, min_y, max_x, max_y, cell);
        while nx.saturating_mul(ny) > MAX_CELLS {
            cell *= 2.0;
            let d = Self::dims(min_x, min_y, max_x, max_y, cell);
            nx = d.0;
            ny = d.1;
        }

        // Counting sort into CSR buckets. Filling in ascending point
        // order makes every bucket's entry list ascending by construction.
        let cells = nx * ny;
        let mut starts = vec![0u32; cells + 1];
        let index_of = |p: &Point| -> usize {
            let cx = Self::axis_cell(p.x, min_x, cell, nx);
            let cy = Self::axis_cell(p.y, min_y, cell, ny);
            cy * nx + cx
        };
        for p in points {
            starts[index_of(p) + 1] += 1;
        }
        for c in 0..cells {
            starts[c + 1] += starts[c];
        }
        let mut cursor: Vec<u32> = starts[..cells].to_vec();
        let mut entries = vec![0u32; points.len()];
        for (i, p) in points.iter().enumerate() {
            let c = index_of(p);
            entries[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        SpatialGrid {
            points: points.to_vec(),
            min_x,
            min_y,
            cell_m: cell,
            nx,
            ny,
            starts,
            entries,
        }
    }

    fn dims(min_x: f64, min_y: f64, max_x: f64, max_y: f64, cell: f64) -> (usize, usize) {
        let nx = ((max_x - min_x) / cell).floor() as usize + 1;
        let ny = ((max_y - min_y) / cell).floor() as usize + 1;
        (nx, ny)
    }

    /// The cell coordinate of `v` along one axis, clamped into range (the
    /// max-coordinate point lands exactly on the boundary).
    fn axis_cell(v: f64, min: f64, cell: f64, n: usize) -> usize {
        let c = ((v - min) / cell).floor();
        if c <= 0.0 {
            0
        } else {
            (c as usize).min(n - 1)
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid indexes no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The effective cell side in meters (the requested side, grown if
    /// the cell budget demanded it).
    pub fn cell_m(&self) -> f64 {
        self.cell_m
    }

    /// Allocated cell count (diagnostics).
    pub fn cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Collects the indices of all points within `radius_m` of `center`
    /// (inclusive boundary) into `out`, in ascending index order. `out`
    /// is cleared first; reuse one buffer across queries to stay
    /// allocation-free in hot loops.
    ///
    /// # Panics
    ///
    /// Panics if `radius_m` is negative or non-finite.
    pub fn within_into(&self, center: Point, radius_m: f64, out: &mut Vec<u32>) {
        assert!(radius_m >= 0.0 && radius_m.is_finite(), "radius must be >= 0 and finite");
        out.clear();
        if self.points.is_empty() {
            return;
        }
        let cx0 = Self::axis_cell(center.x - radius_m, self.min_x, self.cell_m, self.nx);
        let cx1 = Self::axis_cell(center.x + radius_m, self.min_x, self.cell_m, self.nx);
        let cy0 = Self::axis_cell(center.y - radius_m, self.min_y, self.cell_m, self.ny);
        let cy1 = Self::axis_cell(center.y + radius_m, self.min_y, self.cell_m, self.ny);
        let r2 = radius_m * radius_m;
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                let c = cy * self.nx + cx;
                let lo = self.starts[c] as usize;
                let hi = self.starts[c + 1] as usize;
                for &i in &self.entries[lo..hi] {
                    let p = self.points[i as usize];
                    let dx = p.x - center.x;
                    let dy = p.y - center.y;
                    if dx * dx + dy * dy <= r2 {
                        out.push(i);
                    }
                }
            }
        }
        // Buckets are scanned row-major, so results arrive cell-sorted,
        // not index-sorted; restore the ascending-index contract. The
        // candidate set is small (a 3x3 cell neighborhood), so this sort
        // is cheap relative to the pairwise scan it replaces.
        out.sort_unstable();
    }

    /// Allocating convenience form of [`within_into`](Self::within_into).
    pub fn within(&self, center: Point, radius_m: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.within_into(center, radius_m, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::uniform_scatter;
    use simcore::rng::Rng;

    /// Brute-force oracle: every index within `r` of `center`, ascending.
    fn brute(points: &[Point], center: Point, r: f64) -> Vec<u32> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(&center) <= r)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn empty_grid_returns_nothing() {
        let g = SpatialGrid::build(&[], 100.0);
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert!(g.within(Point::new(0.0, 0.0), 1e9).is_empty());
    }

    #[test]
    fn matches_brute_force_on_uniform_clouds() {
        let mut rng = Rng::seed_from(11);
        for n in [1usize, 7, 100, 800] {
            let pts = uniform_scatter(n, 5_000.0, 3_000.0, &mut rng);
            let g = SpatialGrid::build(&pts, 400.0);
            for qi in 0..40 {
                let c = Point::new(
                    rng.next_f64() * 6_000.0 - 500.0,
                    rng.next_f64() * 4_000.0 - 500.0,
                );
                for r in [0.0, 50.0, 400.0, 1_200.0] {
                    assert_eq!(
                        g.within(c, r),
                        brute(&pts, c, r),
                        "n {n} query {qi} radius {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_brute_force_on_clustered_and_collinear_clouds() {
        let mut rng = Rng::seed_from(23);
        // Three tight clusters with wide gaps.
        let mut pts = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (10_000.0, 0.0), (10_000.0, 10_000.0)] {
            for _ in 0..60 {
                pts.push(Point::new(cx + rng.next_f64() * 40.0, cy + rng.next_f64() * 40.0));
            }
        }
        // A collinear run (degenerate bbox height).
        let line: Vec<Point> = (0..50).map(|i| Point::new(i as f64 * 25.0, 7.5)).collect();
        for (label, cloud) in [("clusters", &pts), ("line", &line)] {
            let g = SpatialGrid::build(cloud, 300.0);
            for _ in 0..30 {
                let c = Point::new(rng.next_f64() * 12_000.0, rng.next_f64() * 12_000.0);
                for r in [10.0, 300.0, 5_000.0] {
                    assert_eq!(g.within(c, r), brute(cloud, c, r), "{label} r {r}");
                }
            }
        }
    }

    #[test]
    fn all_points_in_one_cell() {
        let pts: Vec<Point> = (0..20).map(|i| Point::new(i as f64 * 0.1, 0.05)).collect();
        let g = SpatialGrid::build(&pts, 1_000.0);
        assert_eq!(g.cells(), 1);
        assert_eq!(g.within(Point::new(1.0, 0.0), 3.0), brute(&pts, Point::new(1.0, 0.0), 3.0));
        // A query whose bounding square pokes outside the lone cell.
        assert_eq!(
            g.within(Point::new(-50.0, -50.0), 80.0),
            brute(&pts, Point::new(-50.0, -50.0), 80.0)
        );
    }

    #[test]
    fn results_are_ascending_and_boundary_inclusive() {
        let pts = vec![
            Point::new(3.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(4.0, 0.0),
        ];
        let g = SpatialGrid::build(&pts, 2.0);
        // Radius exactly reaching index 2 at distance 5.
        let got = g.within(Point::new(0.0, 0.0), 5.0);
        assert_eq!(got, vec![0, 1, 2, 3]);
        for w in got.windows(2) {
            assert!(w[0] < w[1], "ascending-index contract");
        }
        assert_eq!(g.within(Point::new(0.0, 0.0), 4.999), vec![0, 1, 3]);
    }

    #[test]
    fn identical_inputs_identical_query_order() {
        let mut rng = Rng::seed_from(5);
        let pts = uniform_scatter(300, 2_000.0, 2_000.0, &mut rng);
        let a = SpatialGrid::build(&pts, 150.0);
        let b = SpatialGrid::build(&pts, 150.0);
        let c = Point::new(777.0, 901.0);
        assert_eq!(a.within(c, 600.0), b.within(c, 600.0));
    }

    #[test]
    fn cell_budget_grows_cell_side() {
        // 1 m cells over a 10_000 km extent would want 1e14 cells.
        let pts = vec![Point::new(0.0, 0.0), Point::new(1e10, 1e10)];
        let g = SpatialGrid::build(&pts, 1.0);
        assert!(g.cells() <= MAX_CELLS);
        assert!(g.cell_m() > 1.0);
        assert_eq!(g.within(Point::new(0.0, 0.0), 10.0), vec![0]);
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn rejects_bad_cell() {
        SpatialGrid::build(&[], 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_points() {
        SpatialGrid::build(&[Point::new(f64::NAN, 0.0)], 10.0);
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn rejects_negative_radius() {
        let g = SpatialGrid::build(&[Point::new(0.0, 0.0)], 10.0);
        let _ = g.within(Point::new(0.0, 0.0), -1.0);
    }
}
