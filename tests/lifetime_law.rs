//! Equal in distribution: the tabulated lifetime law the cohort modes
//! draw every device lifetime from, against the BOM it tabulates.
//!
//! A two-sample Kolmogorov–Smirnov test at α = 0.001 compares
//! `Block::sample_ttf` draws with `LifetimeLaw::Tabulated` draws, for both
//! energy systems at table ranges `t_max` = 200 and 300 years (the build
//! tabulates to `max(200, 2 × horizon)`). The tier-1 test uses a sample
//! size that stays fast in a debug build; the ignored release variant
//! draws 400k per side, where the critical distance is about 0.0044:
//!
//! ```text
//! cargo test -q --release --test lifetime_law -- --ignored
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use fleet::device::{DeviceSpec, EnergySystem, LifetimeLaw};
use net::packet::RadioTech;
use reliability::system::bom::Environment;
use simcore::rng::Rng;

/// Two-sample KS critical coefficient `c(α) = sqrt(−ln(α / 2) / 2)`.
fn critical_distance(alpha: f64, n: usize, m: usize) -> f64 {
    let (n, m) = (n as f64, m as f64);
    (-(alpha / 2.0).ln() / 2.0).sqrt() * ((n + m) / (n * m)).sqrt()
}

/// The largest gap between the two samples' empirical CDFs; ties step
/// both CDFs together.
fn ks_distance(mut a: Vec<f64>, mut b: Vec<f64>) -> f64 {
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    let (n, m) = (a.len() as f64, b.len() as f64);
    let (mut i, mut j, mut d) = (0, 0, 0.0_f64);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / n - j as f64 / m).abs());
    }
    d
}

/// Draws `n` lifetimes from each side for every energy system and table
/// range, asserting the KS distance stays below the α = 0.001 critical
/// value. Returns each case's `(distance, critical)`.
fn bom_and_table_agree(n: usize) -> Vec<(f64, f64)> {
    let env = Environment::default();
    let critical = critical_distance(0.001, n, n);
    let mut seen = Vec::new();
    let systems = [EnergySystem::Harvesting, EnergySystem::Battery];
    for (case, energy) in systems.into_iter().enumerate() {
        let block = DeviceSpec { energy, ..DeviceSpec::paper_sensor(RadioTech::LoRa) }
            .lifetime_block(&env);
        for t_max in [200.0, 300.0] {
            let table = LifetimeLaw::table(&block, t_max).expect("finite, monotone CDF");
            let law = LifetimeLaw::Tabulated(table);
            let root = Rng::seed_from(0x1f7e_0000 + case as u64).split("t_max", t_max as u64);
            let mut bom_rng = root.split("bom", 0);
            let mut table_rng = root.split("table", 0);
            let bom: Vec<f64> = (0..n).map(|_| block.sample_ttf(&mut bom_rng)).collect();
            let tabulated: Vec<f64> = (0..n).map(|_| law.sample_years(&mut table_rng)).collect();
            let d = ks_distance(bom, tabulated);
            assert!(
                d < critical,
                "{energy:?} t_max {t_max}: KS distance {d:.5} >= critical {critical:.5} at n = {n}"
            );
            seen.push((d, critical));
        }
    }
    seen
}

#[test]
fn ks_distance_of_identical_and_shifted_samples() {
    let xs: Vec<f64> = (0..100).map(f64::from).collect();
    assert_eq!(ks_distance(xs.clone(), xs.clone()), 0.0);
    let shifted: Vec<f64> = xs.iter().map(|x| x + 10.0).collect();
    assert!((ks_distance(xs, shifted) - 0.10).abs() < 1e-12);
    assert!((critical_distance(0.001, 400_000, 400_000) - 0.00436).abs() < 1e-5);
}

#[test]
fn tabulated_law_matches_the_bom_in_distribution() {
    assert_eq!(bom_and_table_agree(100_000).len(), 4);
}

#[test]
#[ignore = "400k draws per side; run in release (scripts/verify.sh)"]
fn tabulated_law_matches_the_bom_in_distribution_at_400k_draws() {
    for (d, critical) in bom_and_table_agree(400_000) {
        println!("KS distance {d:.5} (critical {critical:.5})");
    }
}
