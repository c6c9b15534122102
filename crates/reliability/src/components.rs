//! A parts library: the component hazards behind device lifetimes.
//!
//! §1 of the paper: *"Conventional wisdom holds that components such as
//! batteries, electrolytic capacitors, or even PCB substrates will hold the
//! mean lifetime of a device to around 10-15 years. Energy-harvesting
//! devices require no batteries, however, and the same manufacturing
//! processes and circuit design points that make systems low-power also
//! make them more robust to long-term failures."*
//!
//! Each constructor returns a [`Component`] — a named hazard — with
//! parameters drawn from public reliability data (IPC-6012 for PCBs,
//! capacitor datasheet endurance ratings with Arrhenius scaling, SAC solder
//! Coffin–Manson data, battery calendar-aging studies). Values are defaults,
//! not gospel; every constructor takes the environmental knobs that matter.

use simcore::rng::Rng;

use crate::arrhenius::electrolytic_life_years;
use crate::fatigue::ThermalCycling;
use crate::hazard::{BathtubHazard, ExponentialHazard, Hazard, WeibullHazard};

/// A named component with a lifetime model.
pub struct Component {
    name: &'static str,
    hazard: Box<dyn Hazard + Send + Sync>,
}

impl Component {
    /// Wraps a hazard with a display name.
    pub fn new(name: &'static str, hazard: impl Hazard + Send + Sync + 'static) -> Self {
        Component { name, hazard: Box::new(hazard) }
    }

    /// The component's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The lifetime model.
    pub fn hazard(&self) -> &(dyn Hazard + Send + Sync) {
        self.hazard.as_ref()
    }

    /// Samples a time to failure in years.
    pub fn sample_ttf(&self, rng: &mut Rng) -> f64 {
        self.hazard.sample_ttf(rng)
    }

    /// Survival probability at age `t` years.
    pub fn survival(&self, t: f64) -> f64 {
        self.hazard.survival(t)
    }
}

impl core::fmt::Debug for Component {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Component").field("name", &self.name).finish()
    }
}

/// Aluminum electrolytic capacitor.
///
/// Datasheet endurance (default 5,000 h at 105 °C) Arrhenius-scaled to the
/// enclosure temperature, then derated by 50 % for ripple/humidity and used
/// as the **median** of a Weibull(k = 3) wear-out — the dominant killer of
/// mains-side and DC-link electronics.
pub fn electrolytic_cap(enclosure_c: f64) -> Component {
    let optimistic = electrolytic_life_years(5_000.0, 105.0, enclosure_c);
    let median = (optimistic * 0.5).max(0.25);
    Component::new("electrolytic-cap", WeibullHazard::with_median(3.0, median))
}

/// Multilayer ceramic capacitor: no wear-out mechanism at these stresses;
/// rare random failures (flex cracks), MTTF ~ 300 y equivalent.
pub fn ceramic_cap() -> Component {
    Component::new("ceramic-cap", ExponentialHazard::with_mttf(300.0))
}

/// Primary lithium cell (LiSOCl2): calendar life bounded by self-discharge
/// and electrolyte depletion. Median `median_years` (default ~12 y for a
/// quality bobbin cell at moderate drain), moderate spread.
pub fn primary_battery(median_years: f64) -> Component {
    Component::new("primary-battery", WeibullHazard::with_median(3.5, median_years))
}

/// FR-4 PCB substrate with plated vias (IPC-6012 class 3, the grade an
/// infrastructure deployment specifies): CAF growth and via fatigue give a
/// long wear-out, median ~50 y outdoors.
pub fn pcb_substrate() -> Component {
    Component::new("pcb-substrate", WeibullHazard::with_median(2.5, 50.0))
}

/// The board's solder-joint field under a thermal-cycling climate;
/// Coffin–Manson median with Weibull(k = 3) spread.
pub fn solder_field(climate: ThermalCycling) -> Component {
    let median = climate.median_life_years();
    Component::new("solder-field", WeibullHazard::with_median(3.0, median))
}

/// Microcontroller die: electromigration/TDDB wear-out far beyond the
/// horizon at low-power design points; weak bathtub with 25-y-median infant
/// tail folded in via the consumer curve anchored at 80 y.
pub fn mcu_lowpower() -> Component {
    Component::new("mcu", BathtubHazard::new(
        // Infant: ~1.4 % defects surface in year one, tapering fast.
        WeibullHazard::new(0.5, 5_000.0),
        // Low-power silicon FIT rates put random MTTF in the centuries.
        ExponentialHazard::with_mttf(500.0),
        WeibullHazard::with_median(4.0, 80.0),
    ))
}

/// Sub-GHz / 802.15.4-class radio IC: similar silicon to the MCU plus an
/// RF front end with ESD exposure; slightly higher random rate.
pub fn radio_lowpower() -> Component {
    Component::new("radio", BathtubHazard::new(
        WeibullHazard::new(0.5, 4_000.0),
        // RF front end sees ESD/surge events the MCU does not.
        ExponentialHazard::with_mttf(300.0),
        WeibullHazard::with_median(4.0, 70.0),
    ))
}

/// SD flash card under continuous logging — the notorious Raspberry-Pi-class
/// gateway failure mode. Median ~4 y with heavy early spread.
pub fn sd_card() -> Component {
    Component::new("sd-card", WeibullHazard::with_median(1.8, 4.0))
}

/// Commodity switch-mode power supply (the gateway's wall wart): the usual
/// electrolytic-driven bathtub, median ~7 y at enclosure temperature.
pub fn psu_commodity(enclosure_c: f64) -> Component {
    let cap_median = (electrolytic_life_years(3_000.0, 105.0, enclosure_c) * 0.5).max(0.25);
    Component::new("psu", BathtubHazard::new(
        WeibullHazard::new(0.7, 80.0),
        ExponentialHazard::with_mttf(60.0),
        WeibullHazard::with_median(3.0, cap_median.min(12.0)),
    ))
}

/// Raspberry-Pi-class single-board computer (gateway compute): dominated by
/// SD wear (modelled separately), leaving a solid silicon+passives board.
pub fn sbc_board() -> Component {
    Component::new("sbc-board", BathtubHazard::new(
        WeibullHazard::new(0.6, 300.0),
        ExponentialHazard::with_mttf(60.0),
        WeibullHazard::with_median(4.0, 30.0),
    ))
}

/// Supercapacitor energy buffer for harvesting designs: capacitance fade is
/// slow at low voltage bias (derated, low-duty charge cycling); median ~30 y.
pub fn supercap_buffer() -> Component {
    Component::new("supercap", WeibullHazard::with_median(3.0, 30.0))
}

/// Solar PV cell (small outdoor panel): encapsulant browning and
/// delamination; median ~35 y, fairly tight (field fleets age together).
pub fn pv_cell() -> Component {
    Component::new("pv-cell", WeibullHazard::with_median(3.0, 35.0))
}

/// Enclosure/conformal-coating seal for a potted, conformally-coated sensor
/// (the low-power design point also pots well: no battery to swap means no
/// service opening); median ~35 y, wide spread (installation quality).
pub fn enclosure_seal() -> Component {
    Component::new("enclosure-seal", WeibullHazard::with_median(2.5, 35.0))
}

/// External random hazards: lightning, surge, vandalism, vehicle strikes.
pub fn external_random(mttf_years: f64) -> Component {
    Component::new("external-random", ExponentialHazard::with_mttf(mttf_years))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from(42)
    }

    fn median_of(c: &Component, n: usize) -> f64 {
        let mut r = rng();
        let mut v: Vec<f64> = (0..n).map(|_| c.sample_ttf(&mut r)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[n / 2]
    }

    #[test]
    fn electrolytic_temperature_sensitivity() {
        let cool = electrolytic_cap(35.0);
        let hot = electrolytic_cap(65.0);
        // 30 °C hotter => 8x shorter optimistic life; medians follow.
        let mc = median_of(&cool, 4_000);
        let mh = median_of(&hot, 4_000);
        assert!(mc / mh > 5.0 && mc / mh < 12.0, "cool {mc} hot {mh}");
    }

    #[test]
    fn battery_median_is_10_to_15_year_folklore() {
        // The paper's conventional-wisdom range.
        let b = primary_battery(12.0);
        let m = median_of(&b, 4_000);
        assert!(m > 10.0 && m < 14.0, "median {m}");
    }

    #[test]
    fn sd_card_is_the_weak_link_of_gateways() {
        let sd = median_of(&sd_card(), 4_000);
        let sbc = median_of(&sbc_board(), 4_000);
        assert!(sd < sbc / 2.0, "sd {sd} sbc {sbc}");
    }

    #[test]
    fn low_power_silicon_outlives_horizon() {
        let m = median_of(&mcu_lowpower(), 4_000);
        assert!(m > 40.0, "median {m}");
    }

    #[test]
    fn survival_callthrough() {
        let c = ceramic_cap();
        assert!(c.survival(0.0) > 0.999);
        assert!(c.survival(300.0) < 0.5);
        assert_eq!(c.name(), "ceramic-cap");
    }

    #[test]
    fn psu_life_capped_by_caps() {
        let m = median_of(&psu_commodity(45.0), 4_000);
        assert!(m > 2.0 && m < 15.0, "median {m}");
    }

    #[test]
    fn debug_format_names_component() {
        let c = pv_cell();
        assert!(format!("{c:?}").contains("pv-cell"));
    }

    #[test]
    fn hazard_accessor_exposes_model() {
        let c = external_random(25.0);
        assert!((c.hazard().survival(25.0) - (-1.0f64).exp()).abs() < 1e-12);
    }
}
