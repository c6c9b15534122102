//! Arrhenius temperature acceleration of component aging.
//!
//! The paper's 10–15-year device-lifetime folklore traces largely to
//! electrolytic capacitors, whose life halves for every ~10 °C of
//! temperature rise (the industry "10-degree rule", itself an Arrhenius law
//! with activation energy ≈ 0.55 eV near room temperature). Outdoor smart-
//! infrastructure enclosures run hot; this module quantifies how much life
//! that costs.

/// The electrolytic-capacitor "10-degree rule": life multiplier
/// `2^((rated_c - use_c)/10)` relative to the rated life at `rated_c`.
///
/// A multiplier > 1 means *longer* life (running cooler than rated).
pub fn electrolytic_life_multiplier(rated_c: f64, use_c: f64) -> f64 {
    2f64.powf((rated_c - use_c) / 10.0)
}

/// Expected electrolytic capacitor life in years, from a datasheet rating
/// of `rated_hours` at `rated_c`, operated at `use_c`.
pub fn electrolytic_life_years(rated_hours: f64, rated_c: f64, use_c: f64) -> f64 {
    let hours = rated_hours * electrolytic_life_multiplier(rated_c, use_c);
    hours / 8_760.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn electrolytic_rule_doubles_per_10c() {
        assert!((electrolytic_life_multiplier(105.0, 95.0) - 2.0).abs() < 1e-12);
        assert!((electrolytic_life_multiplier(105.0, 105.0) - 1.0).abs() < 1e-12);
        assert!((electrolytic_life_multiplier(105.0, 115.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn typical_cap_life_projection() {
        // A 5,000 h @ 105 °C part at a 45 °C enclosure: 5,000 * 2^6 = 320,000 h
        // ≈ 36.5 years — the optimistic bound; ripple current and humidity
        // erode it in practice, which the components module derates for.
        let years = electrolytic_life_years(5_000.0, 105.0, 45.0);
        assert!((years - 36.53).abs() < 0.1, "years {years}");
    }

    #[test]
    fn hot_enclosure_kills_caps() {
        // The same part in a 75 °C sealed curbside cabinet: 5,000 * 2^3 h ≈ 4.6 y.
        let years = electrolytic_life_years(5_000.0, 105.0, 75.0);
        assert!(years < 5.0, "years {years}");
    }
}
