//! `fleet::snapshot::config_fingerprint` as a cache key: the serve
//! daemon memoizes completed runs under this fold (extended with the
//! chaos recipe — `serve::scenario`), so two properties carry the whole
//! cache's correctness:
//!
//! 1. **Stability** — the same config always folds to the same key, on
//!    every rebuild, or restarting the daemon would orphan its cache.
//! 2. **Sensitivity** — every field that changes what a run computes
//!    must move the key, or the cache would serve one scenario's digest
//!    for another. This suite perturbs each fingerprinted field in turn
//!    and insists the key moves every time.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use fleet::sim::{ArmConfig, ArmKind, FleetConfig, SamplingMode};
use fleet::snapshot::config_fingerprint;
use simcore::time::SimDuration;

fn base() -> FleetConfig {
    FleetConfig::paper_experiment(42)
}

/// Asserts a single-field perturbation moves the fingerprint.
fn assert_moves(label: &str, mutate: impl FnOnce(&mut FleetConfig)) {
    let reference = config_fingerprint(&base());
    let mut cfg = base();
    mutate(&mut cfg);
    assert_ne!(
        config_fingerprint(&cfg),
        reference,
        "perturbing {label} must change the fingerprint — the serve cache \
         would otherwise serve the wrong scenario"
    );
}

#[test]
fn fingerprint_is_stable_across_rebuilds() {
    let a = config_fingerprint(&base());
    for _ in 0..10 {
        assert_eq!(config_fingerprint(&base()), a, "same config must refold identically");
    }
    // And a structural clone folds the same as a fresh construction.
    let cfg = base();
    assert_eq!(config_fingerprint(&cfg.clone()), config_fingerprint(&cfg));
}

#[test]
fn every_top_level_field_moves_the_fingerprint() {
    assert_moves("seed", |c| c.seed ^= 1);
    assert_moves("horizon", |c| c.horizon = SimDuration::from_years(49));
    assert_moves("sampling", |c| *c = c.clone().with_sampling(SamplingMode::Aggregate));
    assert_moves("arm count", |c| {
        let extra = ArmConfig::paper_owned_154(10, 1);
        c.arms.push(extra);
    });
    assert_moves("arm order", |c| c.arms.reverse());
}

#[test]
fn every_arm_field_moves_the_fingerprint() {
    assert_moves("arm name", |c| c.arms[0].name = "renamed-arm");
    assert_moves("arm devices", |c| c.arms[0].devices += 1);
    assert_moves("report interval", |c| {
        c.arms[0].device_spec.report_interval += SimDuration::from_secs(1);
    });
    assert_moves("per-packet delivery", |c| {
        c.arms[0].per_packet_delivery = (c.arms[0].per_packet_delivery + 1.0) / 2.0;
    });
    assert_moves("dual-homed fraction", |c| {
        c.arms[0].dual_homed_fraction = (c.arms[0].dual_homed_fraction + 1.0) / 2.0;
    });
    assert_moves("replacement policy presence", |c| c.arms[0].replace_devices = None);
    assert_moves("replacement delay", |c| {
        c.arms[0].replace_devices =
            c.arms[0].replace_devices.map(|d| d + SimDuration::from_secs(60));
    });
}

#[test]
fn arm_kind_internals_move_the_fingerprint() {
    // The paper experiment carries one owned and one federated arm, so
    // both kind payloads are exercised against the same baseline.
    let owned = base()
        .arms
        .iter()
        .position(|a| matches!(a.kind, ArmKind::Owned { .. }))
        .expect("paper experiment has an owned arm");
    let federated = base()
        .arms
        .iter()
        .position(|a| matches!(a.kind, ArmKind::Federated { .. }))
        .expect("paper experiment has a federated arm");

    assert_moves("owned gateway count", |c| {
        if let ArmKind::Owned { gateways, .. } = &mut c.arms[owned].kind {
            *gateways += 1;
        }
    });
    assert_moves("owned repair delay", |c| {
        if let ArmKind::Owned { spec, .. } = &mut c.arms[owned].kind {
            spec.repair_delay += SimDuration::from_secs(1);
        }
    });
    assert_moves("kind discriminant", |c| {
        let (a, b) = (owned.min(federated), owned.max(federated));
        let kind_b = c.arms[b].kind.clone();
        let kind_a = std::mem::replace(&mut c.arms[a].kind, kind_b);
        c.arms[b].kind = kind_a;
    });
}

#[test]
fn serve_request_key_extends_but_never_weakens_the_fingerprint() {
    use serve::json::parse_object;
    use serve::scenario::run_spec_from;

    let spec = |text: &str| {
        run_spec_from(&parse_object(text).expect("request parses")).expect("request validates")
    };

    // The serve key is a strict extension: two requests whose configs
    // fingerprint apart must key apart...
    let a = spec("{\"seed\":1,\"years\":10}");
    let b = spec("{\"seed\":2,\"years\":10}");
    assert_ne!(
        config_fingerprint(&a.fleet_config()),
        config_fingerprint(&b.fleet_config())
    );
    assert_ne!(a.request_key(), b.request_key());

    // ...and the chaos recipe, which is invisible to the fleet config,
    // still splits the key (same fingerprint, different computation).
    let chaotic = spec("{\"seed\":1,\"years\":10,\"chaos\":\"full\"}");
    assert_eq!(
        config_fingerprint(&a.fleet_config()),
        config_fingerprint(&chaotic.fleet_config()),
        "chaos is not part of the fleet config fingerprint"
    );
    assert_ne!(
        a.request_key(),
        chaotic.request_key(),
        "the serve key must still distinguish chaos from plain"
    );
}

#[test]
fn serve_request_keys_are_pinned() {
    use serve::scenario::{ChaosSpec, RunSpec, Scenario};

    // `century-serve` files every cached result under its request key, so
    // a drift in the fingerprint fold, the key fold or a scenario's fleet
    // shape turns every cached entry into a miss. Change these values
    // only together with a deliberate cache-format break.
    let paper = RunSpec {
        scenario: Scenario::Paper,
        seed: 42,
        years: 50,
        sampling: SamplingMode::Legacy,
        shards: 1,
        chaos: ChaosSpec::Off,
    };
    assert_eq!(paper.request_key(), 0xdecf_413b_b8fb_8ea1, "paper spec key drifted");
    let stormy = RunSpec { chaos: ChaosSpec::Storm { intensity: 0.5 }, ..paper.clone() };
    assert_eq!(stormy.request_key(), 0xecca_7f85_da8f_1052, "storm spec key drifted");
    let scaled = RunSpec {
        scenario: Scenario::Scaled { devices: 100_000 },
        seed: 42,
        years: 1,
        sampling: SamplingMode::Aggregate,
        shards: 4,
        chaos: ChaosSpec::Off,
    };
    assert_eq!(scaled.request_key(), 0x2901_acb8_c2c8_be24, "scaled spec key drifted");
}
