//! Multi-hop mesh coverage: extending gateways with device relays.
//!
//! The paper's initial devices are transmit-only, so its arm is single-hop
//! by construction — but §3.1's heterogeneity point cuts both ways: richer
//! devices can relay for poorer ones, trading device energy for gateway
//! density. This module resolves multi-hop coverage over the same
//! placement-static shadowing as [`crate::coverage`] and measures what the
//! relay economy costs: who carries whose traffic, and how much coverage
//! each additional hop buys.
//!
//! Both link passes (device→gateway and device↔device) are grid-backed
//! and keyed per unordered pair, mirroring [`crate::coverage::resolve`]:
//! a pair's shadowing stream depends only on its indices, never on which
//! other pairs exist or the order they are enumerated, so culling
//! out-of-range pairs through the [`SpatialGrid`] is bit-identical to
//! the exhaustive pairwise oracle [`resolve_mesh_pairwise`]. (The seed
//! version drew device↔device shadowing sequentially from a per-`a`
//! stream over `b` — inserting or removing one device perturbed every
//! later pair's draw; per-pair keying fixes that CRN hazard outright.)

use simcore::rng::Rng;

use crate::coverage::{Fnv, RadioParams};
use crate::grid::SpatialGrid;
use crate::link::Link;
use crate::topology::Point;

/// The resolved multi-hop structure.
#[derive(Clone, Debug)]
pub struct MeshCoverage {
    /// Hop count to the nearest gateway per device (`None` = unreachable;
    /// 1 = direct).
    pub hops: Vec<Option<u8>>,
    /// Uplink parent per device: `Parent::Gateway(g)` or
    /// `Parent::Device(d)`; `None` for unreachable devices.
    pub parent: Vec<Option<Parent>>,
    /// Number of descendant devices whose traffic each device relays.
    pub relay_load: Vec<u32>,
}

/// A device's chosen uplink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parent {
    /// Direct to a gateway.
    Gateway(usize),
    /// Through another device.
    Device(usize),
}

/// Margin of device→gateway pair (di, gi) if usable; one keyed draw.
fn eval_gw_pair(
    d: &Point,
    g: &Point,
    di: usize,
    gi: usize,
    params: &RadioParams,
    root: &Rng,
) -> Option<f64> {
    let mut pair_rng = root.split("mesh-gw-pair", di as u64).split("gw", gi as u64);
    let shadow = params.pathloss.sample_shadowing(&mut pair_rng);
    let loss = params.pathloss.loss_with_shadowing(d.distance(g), shadow);
    let link = Link { tx: params.tx, loss, rx_model: params.rx_model };
    link.is_usable(params.usable_margin_db).then(|| link.margin().0)
}

/// Margin of device↔device pair `a < b` if usable; one keyed draw per
/// unordered pair keeps the link symmetric by construction.
fn eval_dev_pair(
    devices: &[Point],
    a: usize,
    b: usize,
    params: &RadioParams,
    root: &Rng,
) -> Option<f64> {
    debug_assert!(a < b, "device pairs are keyed unordered, a < b");
    let mut pair_rng = root.split("mesh-dev-pair", a as u64).split("dev", b as u64);
    let shadow = params.pathloss.sample_shadowing(&mut pair_rng);
    let loss = params
        .pathloss
        // simlint: allow(D004, local radio-position slice, not the fleet DeviceStore)
        .loss_with_shadowing(devices[a].distance(&devices[b]), shadow);
    let link = Link { tx: params.tx, loss, rx_model: params.rx_model };
    link.is_usable(params.usable_margin_db).then(|| link.margin().0)
}

/// Resolves mesh coverage with at most `max_hops` hops.
///
/// Links (device↔gateway and device↔device) are sampled once with
/// placement-static shadowing; parents are chosen breadth-first (fewest
/// hops, then strongest link), so routes are shortest-path trees.
///
/// Candidate pairs come from [`SpatialGrid`] queries at the provable
/// [`RadioParams::cull_radius_m`], so cost is O((n + m) · candidates)
/// instead of O(n² + n·m).
pub fn resolve_mesh(
    devices: &[Point],
    gateways: &[Point],
    params: &RadioParams,
    max_hops: u8,
    rng: &mut Rng,
) -> MeshCoverage {
    assert!(max_hops >= 1, "need at least one hop");
    let n = devices.len();
    let cull = params.cull_radius_m();
    let mut candidates: Vec<u32> = Vec::new();

    // Usable device->gateway links.
    let gw_grid = SpatialGrid::build(gateways, cull);
    let mut gw_links: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (di, d) in devices.iter().enumerate() {
        gw_grid.within_into(*d, cull, &mut candidates);
        for &gi in &candidates {
            let gi = gi as usize;
            if let Some(m) = eval_gw_pair(d, &gateways[gi], di, gi, params, rng) {
                gw_links[di].push((gi, m));
            }
        }
    }

    // Usable device->device links (symmetric by construction: one draw per
    // unordered pair).
    let dev_grid = SpatialGrid::build(devices, cull);
    let mut dev_links: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (a, d) in devices.iter().enumerate() {
        dev_grid.within_into(*d, cull, &mut candidates);
        for &b in &candidates {
            let b = b as usize;
            if b <= a {
                continue;
            }
            if let Some(m) = eval_dev_pair(devices, a, b, params, rng) {
                dev_links[a].push((b, m));
                dev_links[b].push((a, m));
            }
        }
    }
    mesh_from_links(n, &gw_links, &dev_links, max_hops)
}

/// The exhaustive pairwise reference oracle for [`resolve_mesh`] — same
/// per-pair streams, every pair evaluated. Differential-harness use only.
pub fn resolve_mesh_pairwise(
    devices: &[Point],
    gateways: &[Point],
    params: &RadioParams,
    max_hops: u8,
    rng: &mut Rng,
) -> MeshCoverage {
    assert!(max_hops >= 1, "need at least one hop");
    let n = devices.len();
    let mut gw_links: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (di, d) in devices.iter().enumerate() {
        for (gi, g) in gateways.iter().enumerate() {
            if let Some(m) = eval_gw_pair(d, g, di, gi, params, rng) {
                gw_links[di].push((gi, m));
            }
        }
    }
    let mut dev_links: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for a in 0..n {
        for b in (a + 1)..n {
            if let Some(m) = eval_dev_pair(devices, a, b, params, rng) {
                dev_links[a].push((b, m));
                dev_links[b].push((a, m));
            }
        }
    }
    mesh_from_links(n, &gw_links, &dev_links, max_hops)
}

/// BFS from the gateways over resolved links — shared by the grid path
/// and the oracle so structure construction is identical code.
fn mesh_from_links(
    n: usize,
    gw_links: &[Vec<(usize, f64)>],
    dev_links: &[Vec<(usize, f64)>],
    max_hops: u8,
) -> MeshCoverage {
    let mut hops: Vec<Option<u8>> = vec![None; n];
    let mut parent: Vec<Option<Parent>> = vec![None; n];
    let mut frontier: Vec<usize> = Vec::new();
    for di in 0..n {
        if let Some(&(gi, _)) = gw_links[di]
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
        {
            hops[di] = Some(1);
            parent[di] = Some(Parent::Gateway(gi));
            frontier.push(di);
        }
    }
    let mut depth = 1u8;
    while depth < max_hops && !frontier.is_empty() {
        let mut next = Vec::new();
        // Deterministic order: ascending device index.
        for &u in &frontier {
            for &(v, margin) in &dev_links[u] {
                if hops[v].is_none() {
                    hops[v] = Some(depth + 1);
                    parent[v] = Some(Parent::Device(u));
                    next.push((v, margin));
                }
            }
        }
        next.sort_by_key(|&(v, _)| v);
        frontier = next.into_iter().map(|(v, _)| v).collect();
        depth += 1;
    }

    // Relay load: count descendants per device.
    let mut relay_load = vec![0u32; n];
    for di in 0..n {
        let mut cur = parent[di];
        let mut guard = 0;
        while let Some(Parent::Device(p)) = cur {
            relay_load[p] += 1;
            cur = parent[p];
            guard += 1;
            assert!(guard <= n, "parent chain must be acyclic");
        }
    }
    MeshCoverage { hops, parent, relay_load }
}

impl MeshCoverage {
    /// Fraction of devices with a route to some gateway.
    pub fn covered_fraction(&self) -> f64 {
        if self.hops.is_empty() {
            return 0.0;
        }
        self.hops.iter().filter(|h| h.is_some()).count() as f64 / self.hops.len() as f64
    }

    /// The heaviest relay burden on any single device.
    pub fn max_relay_load(&self) -> u32 {
        self.relay_load.iter().copied().max().unwrap_or(0)
    }

    /// Mean TX multiplier per covered device: own packet plus one relay
    /// transmission per descendant, averaged — the energy price of mesh.
    pub fn mean_tx_multiplier(&self) -> f64 {
        let covered: Vec<usize> = (0..self.hops.len())
            .filter(|&i| self.hops[i].is_some())
            .collect();
        if covered.is_empty() {
            return 0.0;
        }
        covered
            .iter()
            .map(|&i| 1.0 + self.relay_load[i] as f64)
            .sum::<f64>()
            / covered.len() as f64
    }

    /// FNV-1a 64-bit digest of the full mesh structure (hops, parents,
    /// relay loads) for differential and bench cross-checks.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.hops.len() as u64);
        for hop in &self.hops {
            h.write_u64(hop.map_or(u64::MAX, u64::from));
        }
        for p in &self.parent {
            match p {
                None => h.write_u64(0),
                Some(Parent::Gateway(g)) => {
                    h.write_u64(1);
                    h.write_u64(*g as u64);
                }
                Some(Parent::Device(d)) => {
                    h.write_u64(2);
                    h.write_u64(*d as u64);
                }
            }
        }
        for &l in &self.relay_load {
            h.write_u64(u64::from(l));
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ieee802154;
    use crate::link::ReceptionModel;
    use crate::pathloss::LogDistance;
    use crate::units::Dbm;

    fn params() -> RadioParams {
        RadioParams {
            tx: Dbm(10.0),
            rx_model: ReceptionModel::at_sensitivity(ieee802154::SENSITIVITY),
            pathloss: LogDistance::urban_2450(),
            usable_margin_db: 3.0,
        }
    }

    /// A chain: gateway at origin, devices strung east — each reliably
    /// hears its neighbors (60 m links have ~8 dB median margin at
    /// 2.4 GHz) but the tail is far beyond direct gateway reach.
    fn chain(n: usize, spacing: f64) -> (Vec<Point>, Vec<Point>) {
        let devices = (1..=n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect();
        (devices, vec![Point::new(0.0, 0.0)])
    }

    #[test]
    fn single_hop_matches_direct_coverage() {
        let (devices, gateways) = chain(5, 60.0);
        let mut r1 = Rng::seed_from(1);
        let mesh = resolve_mesh(&devices, &gateways, &params(), 1, &mut r1);
        for (i, h) in mesh.hops.iter().enumerate() {
            if let Some(h) = h {
                assert_eq!(*h, 1, "device {i} at one hop");
                assert!(matches!(mesh.parent[i], Some(Parent::Gateway(0))));
            }
        }
        assert_eq!(mesh.max_relay_load(), 0);
    }

    #[test]
    fn more_hops_cover_more_of_a_chain() {
        let (devices, gateways) = chain(8, 60.0);
        let run = |hops: u8| {
            let mut rng = Rng::seed_from(7);
            resolve_mesh(&devices, &gateways, &params(), hops, &mut rng).covered_fraction()
        };
        let one = run(1);
        let four = run(4);
        let eight = run(8);
        assert!(four > one, "4 hops {four} vs 1 hop {one}");
        assert!(eight >= four);
        assert!(eight > 0.8, "an 8-hop chain should be nearly fully covered: {eight}");
    }

    #[test]
    fn relay_load_concentrates_upstream() {
        let (devices, gateways) = chain(6, 60.0);
        let mut rng = Rng::seed_from(3);
        let mesh = resolve_mesh(&devices, &gateways, &params(), 8, &mut rng);
        // In a chain, the first device relays for everyone behind it.
        if mesh.covered_fraction() > 0.9 {
            let first = mesh.relay_load[0];
            let last = *mesh.relay_load.last().unwrap();
            assert!(first > last, "first {first} last {last}");
            assert!(mesh.mean_tx_multiplier() > 1.5);
        }
    }

    #[test]
    fn hops_are_monotone_along_routes() {
        let (devices, gateways) = chain(8, 60.0);
        let mut rng = Rng::seed_from(4);
        let mesh = resolve_mesh(&devices, &gateways, &params(), 8, &mut rng);
        for (i, p) in mesh.parent.iter().enumerate() {
            if let Some(Parent::Device(u)) = p {
                assert_eq!(
                    mesh.hops[i].unwrap(),
                    mesh.hops[*u].unwrap() + 1,
                    "child {i} of {u}"
                );
            }
        }
    }

    #[test]
    fn unreachable_island_stays_unreachable() {
        let devices = vec![Point::new(50_000.0, 0.0)];
        let gateways = vec![Point::new(0.0, 0.0)];
        let mut rng = Rng::seed_from(5);
        let mesh = resolve_mesh(&devices, &gateways, &params(), 8, &mut rng);
        assert_eq!(mesh.hops[0], None);
        assert_eq!(mesh.covered_fraction(), 0.0);
        assert_eq!(mesh.mean_tx_multiplier(), 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (devices, gateways) = chain(6, 60.0);
        let mut r1 = Rng::seed_from(9);
        let mut r2 = Rng::seed_from(9);
        let a = resolve_mesh(&devices, &gateways, &params(), 4, &mut r1);
        let b = resolve_mesh(&devices, &gateways, &params(), 4, &mut r2);
        assert_eq!(a.hops, b.hops);
        assert_eq!(a.relay_load, b.relay_load);
        assert_eq!(a.digest(), b.digest());
    }

    /// The CRN fix this PR ships: removing a far, irrelevant device must
    /// not change any other device's mesh outcome. Under the seed
    /// version's sequential per-`a` streams this fails.
    #[test]
    fn removing_far_device_leaves_others_unchanged() {
        let (mut devices, gateways) = chain(6, 60.0);
        devices.push(Point::new(500_000.0, 500_000.0)); // hopeless outlier
        let mut r1 = Rng::seed_from(11);
        let with_outlier = resolve_mesh(&devices, &gateways, &params(), 8, &mut r1);
        devices.pop();
        let mut r2 = Rng::seed_from(11);
        let without = resolve_mesh(&devices, &gateways, &params(), 8, &mut r2);
        assert_eq!(&with_outlier.hops[..6], &without.hops[..]);
        assert_eq!(&with_outlier.parent[..6], &without.parent[..]);
        assert_eq!(with_outlier.hops[6], None);
    }

    #[test]
    fn grid_matches_pairwise_oracle() {
        use crate::topology::uniform_scatter;
        let mut scatter_rng = Rng::seed_from(41);
        let devices = uniform_scatter(150, 1_500.0, 1_500.0, &mut scatter_rng);
        let gateways = uniform_scatter(4, 1_500.0, 1_500.0, &mut scatter_rng);
        let mut r1 = Rng::seed_from(13);
        let mut r2 = Rng::seed_from(13);
        let grid = resolve_mesh(&devices, &gateways, &params(), 4, &mut r1);
        let pairwise = resolve_mesh_pairwise(&devices, &gateways, &params(), 4, &mut r2);
        assert_eq!(grid.hops, pairwise.hops);
        assert_eq!(grid.parent, pairwise.parent);
        assert_eq!(grid.relay_load, pairwise.relay_load);
        assert_eq!(grid.digest(), pairwise.digest());
    }

    #[test]
    #[should_panic(expected = "hop")]
    fn zero_hops_panics() {
        let mut rng = Rng::seed_from(1);
        resolve_mesh(&[], &[], &params(), 0, &mut rng);
    }
}
