//! Gateways: routers by principle, Raspberry Pis in practice (§3.2, §4.2).
//!
//! The paper's owned arm runs Pi-class 802.15.4 gateways; the takeaways say
//! gateways should *only route*, serve all manufacturers, and be
//! replaceable through a commissioning process. Unlike edge devices,
//! gateways **are** maintained: failures trigger a repair visit after a
//! configurable delay.

use backhaul::provider::Provider;
use backhaul::tech::BackhaulTech;
use reliability::system::bom;
use simcore::rng::Rng;
use simcore::time::{SimDuration, SimTime};

/// Gateway service posture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GatewayMode {
    /// Forward-only, aggressively firewalled (§4.4): minimal attack
    /// surface, minimal software upkeep.
    UnidirectionalFirewalled,
    /// Full bidirectional service: more useful, more upkeep (patching a
    /// public-facing networked device).
    Bidirectional,
}

impl GatewayMode {
    /// Yearly software-maintenance burden in person-hours (patching,
    /// certificate rotation, incident response). The firewalled
    /// unidirectional posture nearly eliminates it.
    pub fn yearly_upkeep_hours(self) -> f64 {
        match self {
            GatewayMode::UnidirectionalFirewalled => 0.5,
            GatewayMode::Bidirectional => 6.0,
        }
    }
}

/// A gateway's configuration.
#[derive(Clone, Copy, Debug)]
pub struct GatewaySpec {
    /// Backhaul attachment.
    pub backhaul: BackhaulTech,
    /// Backhaul provider characteristics.
    pub provider: Provider,
    /// Service posture.
    pub mode: GatewayMode,
    /// Repair turnaround once a failure is noticed.
    pub repair_delay: SimDuration,
    /// Serves devices of every manufacturer (the §3.2 interop takeaway);
    /// false models a vendor-locked gateway.
    pub serves_all_vendors: bool,
}

impl GatewaySpec {
    /// The paper's owned 802.15.4 gateway: campus Ethernet, unidirectional
    /// firewalled Pi, one-week repair turnaround, serves everyone.
    pub fn paper_owned() -> Self {
        GatewaySpec {
            backhaul: BackhaulTech::Ethernet,
            provider: Provider::campus(),
            mode: GatewayMode::UnidirectionalFirewalled,
            repair_delay: SimDuration::from_weeks(1),
            serves_all_vendors: true,
        }
    }
}

/// One deployed gateway.
#[derive(Clone, Debug)]
pub struct GatewayState {
    /// Configuration.
    pub spec: GatewaySpec,
    /// When the current hardware fails next.
    pub fails_at: SimTime,
    /// Whether currently down awaiting repair.
    pub down: bool,
    /// Hardware replacements so far.
    pub repairs: u64,
    /// Chaos: suppressed (storm/power outage) until this time.
    pub outage_until: SimTime,
}

impl GatewayState {
    /// Deploys a gateway at `now`, sampling Pi-class hardware lifetime.
    pub fn deploy(spec: GatewaySpec, now: SimTime, env: &bom::Environment, rng: &mut Rng) -> Self {
        GatewayState {
            spec,
            fails_at: now.saturating_add(Self::sample_life(env, rng)),
            down: false,
            repairs: 0,
            outage_until: SimTime::ZERO,
        }
    }

    /// Chaos: suppresses forwarding until `until` (correlated regional
    /// outage). Overlapping outages keep the latest end time.
    pub fn suppress_until(&mut self, until: SimTime) {
        self.outage_until = self.outage_until.max(until);
    }

    fn sample_life(env: &bom::Environment, rng: &mut Rng) -> SimDuration {
        let block = bom::pi_gateway(env);
        SimDuration::from_years_f64(block.sample_ttf(rng))
    }

    /// Marks the hardware failed at `now`; returns when the repair visit
    /// completes.
    pub fn fail(&mut self, now: SimTime) -> SimTime {
        self.down = true;
        now.saturating_add(self.spec.repair_delay)
    }

    /// Completes a repair at `now` with fresh hardware; samples the next
    /// failure time.
    pub fn repair(&mut self, now: SimTime, env: &bom::Environment, rng: &mut Rng) {
        self.down = false;
        self.repairs += 1;
        self.fails_at = now.saturating_add(Self::sample_life(env, rng));
    }

    /// Whether the gateway forwards traffic at `t`: hardware up, backhaul
    /// technology still in service, and no chaos-injected outage active.
    pub fn forwarding_at(&self, t: SimTime) -> bool {
        !self.down
            && t < self.fails_at
            && t >= self.outage_until
            && self.spec.backhaul.available(t.as_years_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> bom::Environment {
        bom::Environment::default()
    }

    #[test]
    fn deploy_fail_repair_cycle() {
        let mut rng = Rng::seed_from(1);
        let mut gw = GatewayState::deploy(GatewaySpec::paper_owned(), SimTime::ZERO, &env(), &mut rng);
        assert!(gw.forwarding_at(SimTime::ZERO));
        let fail_time = gw.fails_at;
        let repair_done = gw.fail(fail_time);
        assert!(!gw.forwarding_at(fail_time));
        assert_eq!(repair_done, fail_time + SimDuration::from_weeks(1));
        gw.repair(repair_done, &env(), &mut rng);
        assert!(gw.forwarding_at(repair_done));
        assert_eq!(gw.repairs, 1);
        assert!(gw.fails_at > repair_done);
    }

    #[test]
    fn pi_gateway_needs_repairs_within_decades() {
        // Median Pi-class TTF is a handful of years; over 50 years a
        // gateway should cycle hardware multiple times.
        let mut rng = Rng::seed_from(2);
        let mut gw = GatewayState::deploy(GatewaySpec::paper_owned(), SimTime::ZERO, &env(), &mut rng);
        let horizon = SimTime::from_years(50);
        while gw.fails_at < horizon {
            let repaired_at = gw.fail(gw.fails_at);
            gw.repair(repaired_at, &env(), &mut rng);
        }
        assert!(gw.repairs >= 3, "repairs {}", gw.repairs);
    }

    #[test]
    fn cellular_gateway_loses_service_at_sunset() {
        use backhaul::tech::CellularGen;
        let mut rng = Rng::seed_from(3);
        let spec = GatewaySpec {
            backhaul: BackhaulTech::Cellular(CellularGen::G3),
            ..GatewaySpec::paper_owned()
        };
        let gw = GatewayState::deploy(spec, SimTime::ZERO, &env(), &mut rng);
        // Even with working hardware, service dies at the 3G sunset (yr 12).
        if gw.fails_at > SimTime::from_years(13) {
            assert!(!gw.forwarding_at(SimTime::from_years(13)));
        }
        assert_eq!(gw.forwarding_at(SimTime::from_years(5)), gw.fails_at > SimTime::from_years(5));
    }

    #[test]
    fn unidirectional_mode_slashes_upkeep() {
        assert!(
            GatewayMode::Bidirectional.yearly_upkeep_hours()
                > GatewayMode::UnidirectionalFirewalled.yearly_upkeep_hours() * 5.0
        );
    }
}
