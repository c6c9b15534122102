//! Deployment geometry: where the city puts its sensors and gateways.
//!
//! The paper's motivating census is Los Angeles: 320,000 utility poles,
//! 61,315 intersections, 210,000 streetlights. [`ManhattanCity`] generates
//! a grid city whose asset mix follows those urban ratios; scatter helpers
//! generate unstructured deployments. All geometry lives on a flat plane in
//! meters — adequate at city scale.

use simcore::dist::Poisson;
use simcore::rng::Rng;

/// A point on the deployment plane, in meters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// East coordinate (m).
    pub x: f64,
    /// North coordinate (m).
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    /// Euclidean distance to `other`, in meters.
    pub fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// What kind of street furniture hosts a sensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AssetKind {
    /// Utility pole.
    UtilityPole,
    /// Signalized intersection.
    Intersection,
    /// Streetlight.
    Streetlight,
}

/// One mounting asset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Asset {
    /// Location.
    pub at: Point,
    /// Asset type.
    pub kind: AssetKind,
}

/// Uniformly scatters `n` points over a `w × h` rectangle.
pub fn uniform_scatter(n: usize, w: f64, h: f64, rng: &mut Rng) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.next_f64() * w, rng.next_f64() * h))
        .collect()
}

/// Samples a homogeneous Poisson point process of intensity
/// `per_km2` points/km² over a `w × h` meter rectangle.
pub fn poisson_scatter(per_km2: f64, w: f64, h: f64, rng: &mut Rng) -> Vec<Point> {
    assert!(per_km2 >= 0.0 && per_km2.is_finite(), "intensity must be >= 0");
    let area_km2 = w * h / 1e6;
    let mean = per_km2 * area_km2;
    if mean <= 0.0 {
        return Vec::new();
    }
    // `mean` is positive and finite here (asserted intensity, finite
    // area), so the constructor cannot fail; degrade to an empty scatter
    // rather than panic if that ever changes.
    let n = match Poisson::new(mean) {
        Ok(p) => p.sample(rng) as usize,
        Err(_) => return Vec::new(),
    };
    uniform_scatter(n, w, h, rng)
}

/// A Manhattan-grid city: `bx × by` blocks of `block_m` meters.
///
/// Assets are laid out structurally:
/// * an intersection at every interior grid crossing;
/// * streetlights along every street edge at `light_spacing_m`;
/// * utility poles along every street edge at `pole_spacing_m`, offset by
///   half a spacing from the lights.
#[derive(Clone, Debug)]
pub struct ManhattanCity {
    /// Blocks east-west.
    pub bx: u32,
    /// Blocks north-south.
    pub by: u32,
    /// Block edge length (m).
    pub block_m: f64,
    /// Streetlight spacing along edges (m).
    pub light_spacing_m: f64,
    /// Utility-pole spacing along edges (m).
    pub pole_spacing_m: f64,
}

impl ManhattanCity {
    /// A city of `bx × by` blocks with US-typical 100 m blocks, 50 m light
    /// spacing and 33 m pole spacing (poles outnumber lights ~1.5:1, the
    /// LA-census regime).
    ///
    /// # Panics
    ///
    /// Panics on zero blocks or non-positive spacings.
    pub fn new(bx: u32, by: u32) -> Self {
        let c = ManhattanCity {
            bx,
            by,
            block_m: 100.0,
            light_spacing_m: 50.0,
            pole_spacing_m: 33.0,
        };
        c.validate();
        c
    }

    /// The smallest square city whose utility-pole census reaches `poles`.
    ///
    /// Each 100 m block edge carries 3 poles at 33 m spacing and an n×n
    /// city has 2n(n+1) street edges, so it holds 6n(n+1) poles; the LA
    /// census of 320,000 poles lands on n = 231 (23.1 km a side).
    pub fn with_poles(poles: usize) -> Self {
        let mut n = 1u32;
        while 6 * (n as usize) * (n as usize + 1) < poles {
            n += 1;
        }
        ManhattanCity::new(n, n)
    }

    fn validate(&self) {
        assert!(self.bx > 0 && self.by > 0, "need at least one block");
        assert!(
            self.block_m > 0.0 && self.light_spacing_m > 0.0 && self.pole_spacing_m > 0.0,
            "spacings must be positive"
        );
    }

    /// City extent in meters, `(width, height)`.
    pub fn extent(&self) -> (f64, f64) {
        (self.bx as f64 * self.block_m, self.by as f64 * self.block_m)
    }

    /// Generates all mounting assets.
    pub fn assets(&self) -> Vec<Asset> {
        self.validate();
        let mut out = Vec::new();
        // Intersections at every grid crossing (including the boundary).
        for ix in 0..=self.bx {
            for iy in 0..=self.by {
                out.push(Asset {
                    at: Point::new(ix as f64 * self.block_m, iy as f64 * self.block_m),
                    kind: AssetKind::Intersection,
                });
            }
        }
        // Furniture along horizontal and vertical street edges.
        self.along_edges(self.light_spacing_m, 0.0, AssetKind::Streetlight, &mut out);
        self.along_edges(self.pole_spacing_m, 0.5, AssetKind::UtilityPole, &mut out);
        out
    }

    fn along_edges(
        &self,
        spacing: f64,
        phase: f64,
        kind: AssetKind,
        out: &mut Vec<Asset>,
    ) {
        let per_edge = (self.block_m / spacing).floor() as u32;
        let offset = phase * spacing;
        // Horizontal streets.
        for iy in 0..=self.by {
            let y = iy as f64 * self.block_m;
            for ix in 0..self.bx {
                let x0 = ix as f64 * self.block_m;
                for k in 0..per_edge {
                    let x = x0 + offset + (k as f64 + 0.5) * spacing;
                    if x < x0 + self.block_m {
                        out.push(Asset { at: Point::new(x, y), kind });
                    }
                }
            }
        }
        // Vertical streets.
        for ix in 0..=self.bx {
            let x = ix as f64 * self.block_m;
            for iy in 0..self.by {
                let y0 = iy as f64 * self.block_m;
                for k in 0..per_edge {
                    let y = y0 + offset + (k as f64 + 0.5) * spacing;
                    if y < y0 + self.block_m {
                        out.push(Asset { at: Point::new(x, y), kind });
                    }
                }
            }
        }
    }

    /// Places gateways on a regular grid with `spacing_m` between them,
    /// centered in their cells.
    pub fn gateway_grid(&self, spacing_m: f64) -> Vec<Point> {
        assert!(spacing_m > 0.0, "spacing must be positive");
        let (w, h) = self.extent();
        let nx = (w / spacing_m).ceil().max(1.0) as u32;
        let ny = (h / spacing_m).ceil().max(1.0) as u32;
        let mut out = Vec::with_capacity((nx * ny) as usize);
        for ix in 0..nx {
            for iy in 0..ny {
                out.push(Point::new(
                    (ix as f64 + 0.5) * w / nx as f64,
                    (iy as f64 + 0.5) * h / ny as f64,
                ));
            }
        }
        out
    }

    /// Asset counts by kind: `(poles, intersections, lights)`.
    pub fn census(&self) -> (usize, usize, usize) {
        let assets = self.assets();
        let count = |k: AssetKind| assets.iter().filter(|a| a.kind == k).count();
        (
            count(AssetKind::UtilityPole),
            count(AssetKind::Intersection),
            count(AssetKind::Streetlight),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_math() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_scatter_bounds() {
        let mut rng = Rng::seed_from(1);
        let pts = uniform_scatter(1_000, 500.0, 200.0, &mut rng);
        assert_eq!(pts.len(), 1_000);
        for p in &pts {
            assert!((0.0..500.0).contains(&p.x));
            assert!((0.0..200.0).contains(&p.y));
        }
    }

    #[test]
    fn poisson_scatter_intensity() {
        let mut rng = Rng::seed_from(2);
        // 100/km² over 10 km² -> ~1000 points.
        let pts = poisson_scatter(100.0, 5_000.0, 2_000.0, &mut rng);
        assert!(pts.len() > 850 && pts.len() < 1_150, "n {}", pts.len());
        assert!(poisson_scatter(0.0, 1_000.0, 1_000.0, &mut rng).is_empty());
    }

    #[test]
    fn city_intersection_count() {
        let c = ManhattanCity::new(10, 10);
        let (_, intersections, _) = c.census();
        assert_eq!(intersections, 11 * 11);
    }

    #[test]
    fn city_asset_ratios_match_la_shape() {
        // LA ratios: poles/intersections ≈ 5.2, lights/intersections ≈ 3.4.
        // The default grid should land in the same regime (structural, not
        // exact): more poles than lights, more lights than intersections.
        let c = ManhattanCity::new(20, 20);
        let (poles, intersections, lights) = c.census();
        assert!(poles > lights, "poles {poles} lights {lights}");
        assert!(lights > intersections, "lights {lights} intersections {intersections}");
        let pr = poles as f64 / intersections as f64;
        let lr = lights as f64 / intersections as f64;
        assert!(pr > 2.0 && pr < 8.0, "pole ratio {pr}");
        assert!(lr > 1.5 && lr < 6.0, "light ratio {lr}");
    }

    #[test]
    fn with_poles_is_the_smallest_square_city_reaching_the_census() {
        for target in [1, 12, 13, 2_000, 20_000] {
            let c = ManhattanCity::with_poles(target);
            assert_eq!(c.bx, c.by);
            assert!(c.census().0 >= target, "{target}: census too small");
            if c.bx > 1 {
                let smaller = ManhattanCity::new(c.bx - 1, c.by - 1);
                assert!(smaller.census().0 < target, "{target}: not the smallest");
            }
        }
        assert_eq!(ManhattanCity::with_poles(320_000).bx, 231);
    }

    #[test]
    fn assets_inside_extent() {
        let c = ManhattanCity::new(5, 3);
        let (w, h) = c.extent();
        for a in c.assets() {
            assert!(a.at.x >= 0.0 && a.at.x <= w);
            assert!(a.at.y >= 0.0 && a.at.y <= h);
        }
    }

    #[test]
    fn gateway_grid_covers_city() {
        let c = ManhattanCity::new(10, 10);
        let gws = c.gateway_grid(300.0);
        // 1000 m / 300 m -> 4 per axis.
        assert_eq!(gws.len(), 16);
        let (w, h) = c.extent();
        for g in &gws {
            assert!(g.x > 0.0 && g.x < w && g.y > 0.0 && g.y < h);
        }
    }

    #[test]
    fn deterministic_generation() {
        let c = ManhattanCity::new(4, 4);
        assert_eq!(c.assets(), c.assets());
    }

    #[test]
    #[should_panic(expected = "block")]
    fn rejects_zero_blocks() {
        ManhattanCity::new(0, 5);
    }
}
