//! The paper's takeaways as a machine-checkable scenario audit.
//!
//! Each §3 *Takeaway* becomes a [`Principle`]; [`audit`] checks a
//! [`DesignPosture`] against all of them and reports violations. The audit
//! is the toolkit's answer to "is this deployment century-ready?" — the
//! same checklist a reviewer would walk, but executable and testable.

/// The architectural principles of §3, in paper order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Principle {
    /// §3.1: "individual devices should expect no human attention during
    /// their operational lifetime."
    NoHumanAttention,
    /// §3.1: "Devices should rely on properties of infrastructure, but not
    /// specific instances of infrastructure."
    PropertiesNotInstances,
    /// §3.2: "Gateways should primarily act only as routers, and defer
    /// decision-making to other system components."
    GatewaysRouteOnly,
    /// §3.2: gateways serve all devices regardless of manufacturer.
    VendorNeutralGateways,
    /// §3.3: "Backhauls must provide reliability and service guarantees
    /// that last or exceed the time that would be required for users to
    /// replace them."
    BackhaulOutlastsReplacement,
    /// §3.4: stakeholders "should reserve the option of vertical
    /// integration, which is enabled by runtime-swappable gateways and
    /// backhaul."
    VerticalIntegrationOption,
}

impl Principle {
    /// All principles in paper order.
    pub const ALL: [Principle; 6] = [
        Principle::NoHumanAttention,
        Principle::PropertiesNotInstances,
        Principle::GatewaysRouteOnly,
        Principle::VendorNeutralGateways,
        Principle::BackhaulOutlastsReplacement,
        Principle::VerticalIntegrationOption,
    ];
}

/// The design decisions of a deployment, as audit inputs.
#[derive(Clone, Copy, Debug)]
pub struct DesignPosture {
    /// Devices require scheduled maintenance (battery swaps, manual
    /// re-keying) to stay alive.
    pub devices_need_scheduled_maintenance: bool,
    /// Devices authenticate to one specific gateway instance (vs any
    /// standards-compliant gateway).
    pub devices_bound_to_specific_gateway: bool,
    /// Gateways make application decisions (closed-loop control, data
    /// filtering beyond a blocklist).
    pub gateways_make_application_decisions: bool,
    /// Gateways accept only one manufacturer's devices.
    pub gateways_vendor_locked: bool,
    /// Backhaul contract/guarantee duration, years.
    pub backhaul_guarantee_years: f64,
    /// Time the operator would need to migrate to a replacement backhaul,
    /// years.
    pub backhaul_replacement_years: f64,
    /// Gateways and backhaul can be swapped at runtime (commissioning
    /// process, no device changes).
    pub runtime_swappable_infrastructure: bool,
}

impl DesignPosture {
    /// The paper's own experiment posture: compliant on every axis.
    pub fn paper_experiment() -> Self {
        DesignPosture {
            devices_need_scheduled_maintenance: false,
            devices_bound_to_specific_gateway: false,
            gateways_make_application_decisions: false,
            gateways_vendor_locked: false,
            backhaul_guarantee_years: 10.0,
            backhaul_replacement_years: 2.0,
            runtime_swappable_infrastructure: true,
        }
    }

    /// A typical vendor-kit deployment (§3.2's interoperability critique).
    pub fn vendor_kit() -> Self {
        DesignPosture {
            devices_need_scheduled_maintenance: true,
            devices_bound_to_specific_gateway: true,
            gateways_make_application_decisions: true,
            gateways_vendor_locked: true,
            backhaul_guarantee_years: 2.0,
            backhaul_replacement_years: 5.0,
            runtime_swappable_infrastructure: false,
        }
    }
}

/// One audit finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The violated principle.
    pub principle: Principle,
    /// Why this posture violates it.
    pub reason: String,
}

/// Audits a posture against all principles; returns the violations.
pub fn audit(p: &DesignPosture) -> Vec<Violation> {
    let mut v = Vec::new();
    if p.devices_need_scheduled_maintenance {
        v.push(Violation {
            principle: Principle::NoHumanAttention,
            reason: "devices require scheduled maintenance to stay alive".into(),
        });
    }
    if p.devices_bound_to_specific_gateway {
        v.push(Violation {
            principle: Principle::PropertiesNotInstances,
            reason: "devices authenticate to a specific gateway instance".into(),
        });
    }
    if p.gateways_make_application_decisions {
        v.push(Violation {
            principle: Principle::GatewaysRouteOnly,
            reason: "gateways embed application decision-making".into(),
        });
    }
    if p.gateways_vendor_locked {
        v.push(Violation {
            principle: Principle::VendorNeutralGateways,
            reason: "gateways reject other manufacturers' devices".into(),
        });
    }
    if p.backhaul_guarantee_years < p.backhaul_replacement_years {
        v.push(Violation {
            principle: Principle::BackhaulOutlastsReplacement,
            reason: format!(
                "guarantee ({:.1} y) shorter than replacement time ({:.1} y)",
                p.backhaul_guarantee_years, p.backhaul_replacement_years
            ),
        });
    }
    if !p.runtime_swappable_infrastructure {
        v.push(Violation {
            principle: Principle::VerticalIntegrationOption,
            reason: "gateways/backhaul cannot be swapped without touching devices".into(),
        });
    }
    v
}

/// Century-readiness score: fraction of principles satisfied.
pub fn readiness_score(p: &DesignPosture) -> f64 {
    let violations = audit(p).len();
    (Principle::ALL.len() - violations) as f64 / Principle::ALL.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_posture_is_clean() {
        let v = audit(&DesignPosture::paper_experiment());
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(readiness_score(&DesignPosture::paper_experiment()), 1.0);
    }

    #[test]
    fn vendor_kit_violates_everything() {
        let v = audit(&DesignPosture::vendor_kit());
        assert_eq!(v.len(), 6);
        assert_eq!(readiness_score(&DesignPosture::vendor_kit()), 0.0);
    }

    #[test]
    fn backhaul_guarantee_comparison() {
        let mut p = DesignPosture::paper_experiment();
        p.backhaul_guarantee_years = 1.0;
        p.backhaul_replacement_years = 3.0;
        let v = audit(&p);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].principle, Principle::BackhaulOutlastsReplacement);
        assert!(v[0].reason.contains("1.0 y"));
        assert!((readiness_score(&p) - 5.0 / 6.0).abs() < 1e-12);
    }

    type PostureMutation = Box<dyn Fn(&mut DesignPosture)>;

    #[test]
    fn each_flag_maps_to_one_principle() {
        let base = DesignPosture::paper_experiment();
        let cases: Vec<(PostureMutation, Principle)> = vec![
            (
                Box::new(|p: &mut DesignPosture| p.devices_need_scheduled_maintenance = true),
                Principle::NoHumanAttention,
            ),
            (
                Box::new(|p: &mut DesignPosture| p.devices_bound_to_specific_gateway = true),
                Principle::PropertiesNotInstances,
            ),
            (
                Box::new(|p: &mut DesignPosture| p.gateways_make_application_decisions = true),
                Principle::GatewaysRouteOnly,
            ),
            (
                Box::new(|p: &mut DesignPosture| p.gateways_vendor_locked = true),
                Principle::VendorNeutralGateways,
            ),
            (
                Box::new(|p: &mut DesignPosture| p.runtime_swappable_infrastructure = false),
                Principle::VerticalIntegrationOption,
            ),
        ];
        for (mutate, principle) in cases {
            let mut p = base;
            mutate(&mut p);
            let v = audit(&p);
            assert_eq!(v.len(), 1);
            assert_eq!(v[0].principle, principle);
        }
    }
}
