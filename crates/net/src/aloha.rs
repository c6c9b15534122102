//! Pure-ALOHA collision analysis for transmit-only populations.
//!
//! The paper's initial devices are transmit-only (§4.1): no listening, no
//! acknowledgements, no retries — pure ALOHA. A packet survives if no
//! overlapping transmission on the same channel/SF arrives within one
//! airtime on either side, unless the receiver *captures* the stronger
//! packet. These formulas bound how far "just deploy more sensors" scales
//! before the channel itself becomes the obsolescence risk.

/// Offered load `G`: expected transmissions per airtime across the
/// population (`n` devices, each with `airtime_s` every `interval_s`).
pub fn offered_load(n: u64, airtime_s: f64, interval_s: f64) -> f64 {
    assert!(airtime_s > 0.0, "airtime must be positive");
    assert!(interval_s > 0.0, "interval must be positive");
    n as f64 * airtime_s / interval_s
}

/// Pure-ALOHA delivery probability without capture: `e^(-2G)`.
pub fn delivery_prob(g: f64) -> f64 {
    (-2.0 * g.max(0.0)).exp()
}

/// Pure-ALOHA delivery probability with capture: a colliding packet still
/// survives with probability `capture_prob` (the chance its power exceeds
/// the interferer by the capture threshold — LoRa demodulators routinely
/// capture ≥ 6 dB-stronger packets).
pub fn delivery_prob_with_capture(g: f64, capture_prob: f64) -> f64 {
    let p_clear = delivery_prob(g);
    let c = capture_prob.clamp(0.0, 1.0);
    p_clear + (1.0 - p_clear) * c
}

/// The maximum population sustaining at least `min_delivery` delivery
/// probability (no capture), inverted from `e^(-2G) = min_delivery`.
pub fn max_population(airtime_s: f64, interval_s: f64, min_delivery: f64) -> u64 {
    assert!(
        (0.0..1.0).contains(&min_delivery) && min_delivery > 0.0,
        "delivery target must be in (0,1)"
    );
    let g_max = -min_delivery.ln() / 2.0;
    let per_device = airtime_s / interval_s;
    (g_max / per_device).floor() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_at_known_loads() {
        assert!((delivery_prob(0.0) - 1.0).abs() < 1e-12);
        assert!((delivery_prob(0.5) - (-1.0f64).exp()).abs() < 1e-12);
        assert!(delivery_prob(-1.0) == 1.0);
    }

    #[test]
    fn capture_improves_delivery() {
        let g = 0.5;
        let plain = delivery_prob(g);
        let cap = delivery_prob_with_capture(g, 0.5);
        assert!(cap > plain);
        assert!((cap - (plain + (1.0 - plain) * 0.5)).abs() < 1e-12);
        assert_eq!(delivery_prob_with_capture(g, 0.0), plain);
        assert_eq!(delivery_prob_with_capture(g, 1.0), 1.0);
    }

    #[test]
    fn offered_load_arithmetic() {
        // 10,000 devices, 62 ms airtime, hourly: G ≈ 0.172.
        let g = offered_load(10_000, 0.0617, 3_600.0);
        assert!((g - 0.171_4).abs() < 0.001, "g {g}");
    }

    #[test]
    fn max_population_inverts() {
        let airtime = 0.0617;
        let interval = 3_600.0;
        let n = max_population(airtime, interval, 0.9);
        // Check the bound is tight: n gives >= 0.9, n+1 gives < 0.9.
        let g_n = offered_load(n, airtime, interval);
        let g_n1 = offered_load(n + 1, airtime, interval);
        assert!(delivery_prob(g_n) >= 0.9);
        assert!(delivery_prob(g_n1) < 0.9);
    }

    #[test]
    #[should_panic(expected = "delivery target")]
    fn max_population_rejects_bad_target() {
        max_population(0.1, 100.0, 1.0);
    }
}
