//! Coverage resolution: which gateways hear which devices (Figure 1).
//!
//! The paper's hierarchy observation: *"Smart devices rely on one or two
//! gateways, while gateways may support thousands of devices."* Given
//! device and gateway positions, a propagation model, and a radio budget,
//! [`resolve`] computes the reliance structure and its statistics:
//! coverage fraction, per-device gateway redundancy, and per-gateway load.
//!
//! # Scaling and bit-identity
//!
//! [`resolve`] is grid-backed: gateways are indexed once in a
//! [`SpatialGrid`] and each device only evaluates candidates within
//! [`RadioParams::cull_radius_m`] — the distance beyond which *no
//! realizable shadowing draw* (truncated at ±4σ, see
//! [`crate::pathloss::SHADOW_TRUNCATE_SIGMA`]) can produce a usable link.
//! Because shadowing is keyed per unordered pair (`split("cov-pair",
//! di).split("gw", gi)`), culling a hopeless pair cannot shift any
//! surviving pair's draw, so the grid path is bit-identical to the
//! pairwise oracle [`resolve_pairwise`]; `tests/grid_differential.rs`
//! proves it across seeds × densities × radio parameter sets.

use simcore::rng::Rng;

use crate::grid::SpatialGrid;
use crate::link::{Link, ReceptionModel};
use crate::pathloss::LogDistance;
use crate::topology::Point;
use crate::units::{Db, Dbm};

/// Radio parameters used to resolve coverage.
#[derive(Clone, Copy, Debug)]
pub struct RadioParams {
    /// Device transmit power.
    pub tx: Dbm,
    /// Receiver model at the gateway.
    pub rx_model: ReceptionModel,
    /// Propagation model.
    pub pathloss: LogDistance,
    /// Minimum margin (dB) above the 50 % point to call a link usable.
    pub usable_margin_db: f64,
}

impl RadioParams {
    /// The largest path loss (dB) a link can sustain and still be usable:
    /// `tx − p50 − usable_margin`. [`Link::is_usable`] holds iff the
    /// realized loss is at most this budget.
    pub fn max_usable_loss_db(&self) -> f64 {
        self.tx.0 - self.rx_model.p50.0 - self.usable_margin_db
    }

    /// The provable link cull radius (m): beyond this distance the median
    /// loss exceeds the usable budget even under the deepest realizable
    /// constructive shadow (−4σ), so the pair can be skipped without
    /// evaluating it — under per-pair RNG keying this changes nothing.
    ///
    /// Derivation: usable ⇔ `median_loss(d) + shadow ≤ budget` and
    /// `shadow ≥ −max_shadow_db`, so any usable pair has `median_loss(d)
    /// ≤ budget + max_shadow_db`; inverting the monotone median-loss
    /// curve bounds `d`. A `1 + 1e-6` relative nudge (≈ `1.26e-5·n` dB of
    /// loss slack, orders of magnitude above 1-ulp rounding) keeps the
    /// bound safe under floating-point inversion error, and the radius is
    /// floored at the model's reference distance `d0`.
    pub fn cull_radius_m(&self) -> f64 {
        let budget = Db(self.max_usable_loss_db() + self.pathloss.max_shadow_db());
        let r = self.pathloss.median_range_m(budget);
        (r * (1.0 + 1e-6)).max(self.pathloss.d0_m)
    }
}

/// The resolved device→gateway reliance structure.
#[derive(Clone, Debug)]
pub struct Coverage {
    /// For each device, the indices of gateways with usable links,
    /// strongest first.
    pub device_gateways: Vec<Vec<usize>>,
    /// For each gateway, how many devices rely on it (usable links).
    pub gateway_load: Vec<usize>,
}

/// The margin (dB) of pair (di, gi) if usable, drawn from its own keyed
/// RNG stream — the single evaluation path shared by the grid resolver
/// and the pairwise oracle, so both realize identical draws.
fn eval_pair(
    d: &Point,
    g: &Point,
    di: usize,
    gi: usize,
    params: &RadioParams,
    root: &Rng,
) -> Option<f64> {
    let mut pair_rng = root.split("cov-pair", di as u64).split("gw", gi as u64);
    let shadow = params.pathloss.sample_shadowing(&mut pair_rng);
    let loss = params.pathloss.loss_with_shadowing(d.distance(g), shadow);
    let link = Link { tx: params.tx, loss, rx_model: params.rx_model };
    link.is_usable(params.usable_margin_db).then(|| link.margin().0)
}

fn finish_device(
    mut usable: Vec<(f64, usize)>,
    gateway_load: &mut [usize],
) -> Vec<usize> {
    // Stable sort + ascending-gi insertion order ⇒ deterministic ties.
    usable.sort_by(|a, b| b.0.total_cmp(&a.0));
    for &(_, gi) in &usable {
        gateway_load[gi] += 1;
    }
    usable.into_iter().map(|(_, gi)| gi).collect()
}

/// Resolves coverage between `devices` and `gateways` through a spatial
/// grid over the gateways — O(devices · candidates-in-range) instead of
/// O(devices · gateways).
///
/// Shadowing is sampled once per device-gateway pair (placement-static)
/// from a stream keyed only by the pair's indices, so the result is a
/// deployment lottery that is insensitive to which *other* pairs exist:
/// rerunning with another seed yields a different but statistically
/// identical city, and adding or culling far pairs never perturbs
/// surviving links.
pub fn resolve(
    devices: &[Point],
    gateways: &[Point],
    params: &RadioParams,
    rng: &mut Rng,
) -> Coverage {
    let cull = params.cull_radius_m();
    let grid = SpatialGrid::build(gateways, cull);
    let mut device_gateways = Vec::with_capacity(devices.len());
    let mut gateway_load = vec![0usize; gateways.len()];
    let mut candidates: Vec<u32> = Vec::new();
    for (di, d) in devices.iter().enumerate() {
        grid.within_into(*d, cull, &mut candidates);
        let mut usable: Vec<(f64, usize)> = Vec::new();
        for &gi in &candidates {
            let gi = gi as usize;
            if let Some(margin) = eval_pair(d, &gateways[gi], di, gi, params, rng) {
                usable.push((margin, gi));
            }
        }
        device_gateways.push(finish_device(usable, &mut gateway_load));
    }
    Coverage { device_gateways, gateway_load }
}

/// The pairwise reference oracle: evaluates every device×gateway pair
/// with the same per-pair streams as [`resolve`]. Kept only so the
/// differential harness can prove the grid path changes nothing; O(n·m).
pub fn resolve_pairwise(
    devices: &[Point],
    gateways: &[Point],
    params: &RadioParams,
    rng: &mut Rng,
) -> Coverage {
    let mut device_gateways = Vec::with_capacity(devices.len());
    let mut gateway_load = vec![0usize; gateways.len()];
    for (di, d) in devices.iter().enumerate() {
        let mut usable: Vec<(f64, usize)> = Vec::new();
        for (gi, g) in gateways.iter().enumerate() {
            if let Some(margin) = eval_pair(d, g, di, gi, params, rng) {
                usable.push((margin, gi));
            }
        }
        device_gateways.push(finish_device(usable, &mut gateway_load));
    }
    Coverage { device_gateways, gateway_load }
}

impl Coverage {
    /// Fraction of devices with at least one usable gateway.
    pub fn covered_fraction(&self) -> f64 {
        if self.device_gateways.is_empty() {
            return 0.0;
        }
        let covered = self.device_gateways.iter().filter(|g| !g.is_empty()).count();
        covered as f64 / self.device_gateways.len() as f64
    }

    /// Mean number of usable gateways per covered device (the Figure-1
    /// "one or two gateways" statistic).
    pub fn mean_redundancy(&self) -> f64 {
        let covered: Vec<usize> = self
            .device_gateways
            .iter()
            .filter(|g| !g.is_empty())
            .map(Vec::len)
            .collect();
        if covered.is_empty() {
            return 0.0;
        }
        covered.iter().sum::<usize>() as f64 / covered.len() as f64
    }

    /// Fraction of covered devices relying on exactly one gateway — the
    /// single-point-of-reliance population.
    pub fn single_homed_fraction(&self) -> f64 {
        let covered: Vec<&Vec<usize>> =
            self.device_gateways.iter().filter(|g| !g.is_empty()).collect();
        if covered.is_empty() {
            return 0.0;
        }
        covered.iter().filter(|g| g.len() == 1).count() as f64 / covered.len() as f64
    }

    /// The largest per-gateway device load.
    pub fn max_gateway_load(&self) -> usize {
        self.gateway_load.iter().copied().max().unwrap_or(0)
    }

    /// Devices left uncovered if the given gateway dies (those whose only
    /// usable gateway it was).
    pub fn stranded_by_gateway(&self, gateway: usize) -> usize {
        self.device_gateways
            .iter()
            .filter(|gs| gs.len() == 1 && gs[0] == gateway)
            .count()
    }

    /// FNV-1a 64-bit digest of the full reliance structure — the
    /// bit-identity currency of the grid differential harness
    /// (`tests/grid_differential.rs`), up to the 320k-pole LA city.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.device_gateways.len() as u64);
        for gs in &self.device_gateways {
            h.write_u64(gs.len() as u64);
            for &gi in gs {
                h.write_u64(gi as u64);
            }
        }
        h.write_u64(self.gateway_load.len() as u64);
        for &load in &self.gateway_load {
            h.write_u64(load as u64);
        }
        h.finish()
    }
}

/// Minimal FNV-1a 64-bit hasher (dependency-free, matches telemetry's).
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lora::SpreadingFactor;

    fn params() -> RadioParams {
        RadioParams {
            tx: Dbm(14.0),
            rx_model: ReceptionModel::at_sensitivity(
                SpreadingFactor::Sf10.sensitivity_125khz(),
            ),
            pathloss: LogDistance::urban_915(),
            usable_margin_db: 3.0,
        }
    }

    #[test]
    fn near_devices_covered_far_devices_not() {
        let gateways = vec![Point::new(0.0, 0.0)];
        let devices = vec![
            Point::new(10.0, 0.0),      // 10 m: trivially covered.
            Point::new(100_000.0, 0.0), // 100 km: hopeless.
        ];
        let mut rng = Rng::seed_from(1);
        let cov = resolve(&devices, &gateways, &params(), &mut rng);
        assert_eq!(cov.device_gateways[0], vec![0]);
        assert!(cov.device_gateways[1].is_empty());
        assert!((cov.covered_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(cov.gateway_load[0], 1);
    }

    #[test]
    fn redundancy_counts_multiple_gateways() {
        let gateways = vec![Point::new(-20.0, 0.0), Point::new(20.0, 0.0)];
        let devices = vec![Point::new(0.0, 0.0)];
        let mut rng = Rng::seed_from(2);
        let cov = resolve(&devices, &gateways, &params(), &mut rng);
        assert_eq!(cov.device_gateways[0].len(), 2);
        assert!((cov.mean_redundancy() - 2.0).abs() < 1e-12);
        assert_eq!(cov.single_homed_fraction(), 0.0);
        assert_eq!(cov.max_gateway_load(), 1);
    }

    #[test]
    fn strongest_gateway_listed_first() {
        let gateways = vec![Point::new(500.0, 0.0), Point::new(30.0, 0.0)];
        let devices = vec![Point::new(0.0, 0.0)];
        let mut rng = Rng::seed_from(3);
        let cov = resolve(&devices, &gateways, &params(), &mut rng);
        // The 30 m gateway (index 1) should nearly always be first.
        assert_eq!(cov.device_gateways[0][0], 1);
    }

    #[test]
    fn stranded_by_gateway_counts_single_homed() {
        // Gateways 100 km apart: shadowing cannot bridge the gap, so each
        // device is single-homed by construction.
        let gateways = vec![Point::new(0.0, 0.0), Point::new(100_000.0, 0.0)];
        let devices = vec![
            Point::new(5.0, 0.0),
            Point::new(99_995.0, 0.0),
            Point::new(15.0, 0.0),
        ];
        let mut rng = Rng::seed_from(4);
        let cov = resolve(&devices, &gateways, &params(), &mut rng);
        // Devices 0 and 2 are only near gateway 0; device 1 only near 1.
        assert_eq!(cov.stranded_by_gateway(0), 2);
        assert_eq!(cov.stranded_by_gateway(1), 1);
    }

    #[test]
    fn empty_inputs() {
        let mut rng = Rng::seed_from(5);
        let cov = resolve(&[], &[], &params(), &mut rng);
        assert_eq!(cov.covered_fraction(), 0.0);
        assert_eq!(cov.mean_redundancy(), 0.0);
        assert_eq!(cov.max_gateway_load(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let gateways = vec![Point::new(0.0, 0.0)];
        let devices: Vec<Point> = (0..50).map(|i| Point::new(i as f64 * 40.0, 10.0)).collect();
        let mut r1 = Rng::seed_from(6);
        let mut r2 = Rng::seed_from(6);
        let c1 = resolve(&devices, &gateways, &params(), &mut r1);
        let c2 = resolve(&devices, &gateways, &params(), &mut r2);
        assert_eq!(c1.device_gateways, c2.device_gateways);
        assert_eq!(c1.digest(), c2.digest());
    }

    #[test]
    fn cull_radius_exceeds_median_range() {
        let p = params();
        let median = p.pathloss.median_range_m(Db(p.max_usable_loss_db()));
        let cull = p.cull_radius_m();
        assert!(cull > median, "cull {cull} median {median}");
        // The guard band is 4σ = 24 dB at σ 6, n 2.9 ⇒ ×10^(24/29) ≈ 6.7.
        assert!((cull / median - 10f64.powf(24.0 / 29.0)).abs() < 0.01);
    }

    #[test]
    fn grid_matches_pairwise_oracle() {
        use crate::topology::uniform_scatter;
        let mut scatter_rng = Rng::seed_from(77);
        let devices = uniform_scatter(400, 4_000.0, 4_000.0, &mut scatter_rng);
        let gateways = uniform_scatter(25, 4_000.0, 4_000.0, &mut scatter_rng);
        let mut r1 = Rng::seed_from(8);
        let mut r2 = Rng::seed_from(8);
        let grid = resolve(&devices, &gateways, &params(), &mut r1);
        let pairwise = resolve_pairwise(&devices, &gateways, &params(), &mut r2);
        assert_eq!(grid.device_gateways, pairwise.device_gateways);
        assert_eq!(grid.gateway_load, pairwise.gateway_load);
        assert_eq!(grid.digest(), pairwise.digest());
    }
}
