//! The deployment hierarchy of Figure 1, as a data structure.
//!
//! *"Smart devices rely on one or two gateways, while gateways may support
//! thousands of devices. Similarly, individual gateways rely on one or two
//! backhaul technologies, which backhaul infrastructure may support
//! thousands of gateways. The further up the hierarchy one travels, the
//! more devices there are that are reliant on the stability and reliability
//! of the provided interface."*
//!
//! [`Hierarchy`] holds the reliance edges between the four tiers and
//! computes the fan-out statistics exhibit F1 reports.

use std::collections::BTreeMap;

/// A node id within a tier.
pub type NodeId = u32;

/// The reliance graph: each node lists the upstream nodes (next tier up)
/// it can use.
#[derive(Clone, Debug, Default)]
pub struct Hierarchy {
    /// device -> gateways it can reach.
    pub device_gateways: BTreeMap<NodeId, Vec<NodeId>>,
    /// gateway -> backhauls it is attached to.
    pub gateway_backhauls: BTreeMap<NodeId, Vec<NodeId>>,
    /// backhaul -> clouds it can deliver to.
    pub backhaul_clouds: BTreeMap<NodeId, Vec<NodeId>>,
}

/// Fan-out statistics for one reliance layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FanOut {
    /// Mean upstream count per downstream node (e.g. gateways per device).
    pub mean_upstream: f64,
    /// Fraction of downstream nodes with exactly one upstream option.
    pub single_homed: f64,
    /// Maximum downstream count on any upstream node (e.g. devices on the
    /// busiest gateway).
    pub max_downstream: usize,
    /// Downstream nodes with zero upstream options (orphans).
    pub orphans: usize,
}

fn layer_stats(edges: &BTreeMap<NodeId, Vec<NodeId>>) -> FanOut {
    if edges.is_empty() {
        return FanOut { mean_upstream: 0.0, single_homed: 0.0, max_downstream: 0, orphans: 0 };
    }
    let mut up_total = 0usize;
    let mut single = 0usize;
    let mut orphans = 0usize;
    let mut downstream: BTreeMap<NodeId, usize> = BTreeMap::new();
    for ups in edges.values() {
        up_total += ups.len();
        match ups.len() {
            0 => orphans += 1,
            1 => single += 1,
            _ => {}
        }
        for &u in ups {
            *downstream.entry(u).or_insert(0) += 1;
        }
    }
    let homed = edges.len() - orphans;
    FanOut {
        mean_upstream: up_total as f64 / edges.len() as f64,
        single_homed: if homed == 0 { 0.0 } else { single as f64 / homed as f64 },
        max_downstream: downstream.values().copied().max().unwrap_or(0),
        orphans,
    }
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new() -> Self {
        Hierarchy::default()
    }

    /// Fan-out statistics of the gateway→backhaul layer.
    pub fn gateway_layer(&self) -> FanOut {
        layer_stats(&self.gateway_backhauls)
    }

    /// True if every device with any gateway can reach some cloud.
    pub fn fully_connected(&self) -> bool {
        self.device_gateways.values().all(|gws| {
            gws.is_empty()
                || gws.iter().any(|g| {
                    self.gateway_backhauls
                        .get(g)
                        .is_some_and(|bs| {
                            bs.iter().any(|b| {
                                self.backhaul_clouds.get(b).is_some_and(|cs| !cs.is_empty())
                            })
                        })
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1's canonical shape: many devices on few gateways on fewer
    /// backhauls on one cloud.
    fn figure1() -> Hierarchy {
        let mut h = Hierarchy::new();
        // 6 devices: most dual-homed, some single-homed.
        h.device_gateways.insert(0, vec![0, 1]);
        h.device_gateways.insert(1, vec![0]);
        h.device_gateways.insert(2, vec![0, 1]);
        h.device_gateways.insert(3, vec![1]);
        h.device_gateways.insert(4, vec![1, 0]);
        h.device_gateways.insert(5, vec![1]);
        // 2 gateways, each one backhaul.
        h.gateway_backhauls.insert(0, vec![0]);
        h.gateway_backhauls.insert(1, vec![1]);
        // 2 backhauls to one cloud.
        h.backhaul_clouds.insert(0, vec![0]);
        h.backhaul_clouds.insert(1, vec![0]);
        h
    }

    #[test]
    fn device_layer_statistics() {
        let h = figure1();
        let f = layer_stats(&h.device_gateways);
        assert!((f.mean_upstream - 9.0 / 6.0).abs() < 1e-12);
        assert!((f.single_homed - 0.5).abs() < 1e-12);
        assert_eq!(f.max_downstream, 5); // Gateway 1 serves 5 devices.
        assert_eq!(f.orphans, 0);
    }

    #[test]
    fn connectivity_check() {
        let mut h = figure1();
        assert!(h.fully_connected());
        // Disconnect backhaul 1 from every cloud.
        h.backhaul_clouds.insert(1, vec![]);
        assert!(!h.fully_connected());
    }

    #[test]
    fn orphan_detection() {
        let mut h = Hierarchy::new();
        h.device_gateways.insert(0, vec![]);
        h.device_gateways.insert(1, vec![0]);
        h.gateway_backhauls.insert(0, vec![0]);
        h.backhaul_clouds.insert(0, vec![0]);
        let f = layer_stats(&h.device_gateways);
        assert_eq!(f.orphans, 1);
        assert!((f.single_homed - 1.0).abs() < 1e-12);
        // An orphaned device does not break "fully connected" (it has no
        // gateways at all — it was never connected).
        assert!(h.fully_connected());
    }

    #[test]
    fn empty_hierarchy() {
        let h = Hierarchy::new();
        let f = layer_stats(&h.device_gateways);
        assert_eq!(f.mean_upstream, 0.0);
        assert_eq!(f.max_downstream, 0);
        assert!(h.fully_connected());
    }
}
