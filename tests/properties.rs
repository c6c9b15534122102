//! Cross-crate property-based tests (proptest) on the toolkit's invariants.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target, gated behind `--features proptest`.

use proptest::prelude::*;

use econ::cost::CostStream;
use fleet::commissioning::{Registry, Session};
use econ::credits::Wallet;
use econ::money::Usd;
use simcore::event::EventQueue;
use simcore::rng::Rng;
use simcore::survival::{KaplanMeier, Observation};
use simcore::time::{SimDuration, SimTime};

proptest! {
    /// Money arithmetic is exact: sum of parts equals scaled whole.
    #[test]
    fn money_no_drift(micros in 1i64..1_000_000, k in 1i64..10_000) {
        let unit = Usd::from_micros(micros as i128);
        let mut total = Usd::ZERO;
        for _ in 0..k {
            total += unit;
        }
        prop_assert_eq!(total, unit * k);
    }

    /// NPV at zero discount equals the nominal total for any stream.
    #[test]
    fn npv_zero_rate_is_total(cents in proptest::collection::vec(0i64..1_000_000, 1..40)) {
        let mut s = CostStream::zeros(cents.len());
        for (y, &c) in cents.iter().enumerate() {
            s.add(y, Usd::from_cents(c));
        }
        prop_assert_eq!(s.npv(0.0), s.total());
    }

    /// NPV is monotone non-increasing in the discount rate for
    /// non-negative streams.
    #[test]
    fn npv_monotone_in_rate(cents in proptest::collection::vec(0i64..1_000_000, 1..30)) {
        let mut s = CostStream::zeros(cents.len());
        for (y, &c) in cents.iter().enumerate() {
            s.add(y, Usd::from_cents(c));
        }
        let lo = s.npv(0.01);
        let hi = s.npv(0.10);
        prop_assert!(hi <= lo + Usd::from_micros(cents.len() as i128));
    }

    /// Wallet conservation: burned + balance is invariant under any burn
    /// sequence.
    #[test]
    fn wallet_conservation(initial in 0u64..10_000, burns in proptest::collection::vec(0u32..200, 0..50)) {
        let mut w = Wallet::with_credits(initial);
        for (i, &bytes) in burns.iter().enumerate() {
            let _ = w.burn_packet(SimTime::from_secs(i as u64), bytes);
        }
        prop_assert_eq!(w.balance() + w.burned(), initial);
    }

    /// Event queue: any schedule order pops in time order, stable by
    /// insertion for ties.
    #[test]
    fn event_queue_time_ordered(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t.as_secs() >= lt);
                if t.as_secs() == lt {
                    prop_assert!(i > li, "FIFO violated for equal times");
                }
            }
            last = Some((t.as_secs(), i));
        }
    }

    /// Kaplan-Meier: survival curve is non-increasing and within [0,1]
    /// for arbitrary censored data.
    #[test]
    fn km_monotone(
        times in proptest::collection::vec(0.0f64..100.0, 1..100),
        events in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let obs: Vec<Observation> = times
            .iter()
            .zip(events.iter())
            .map(|(&t, &e)| Observation { time: t, event: e })
            .collect();
        let km = KaplanMeier::fit(&obs);
        let mut last = 1.0;
        for p in km.points() {
            prop_assert!(p.survival >= -1e-12 && p.survival <= 1.0 + 1e-12);
            prop_assert!(p.survival <= last + 1e-12);
            last = p.survival;
        }
    }

    /// RNG stream splitting: children with distinct labels never collide
    /// on their first outputs, and splitting is pure.
    #[test]
    fn rng_split_stability(seed in any::<u64>(), a in 0u64..1_000, b in 0u64..1_000) {
        let root = Rng::seed_from(seed);
        let mut c1 = root.split("x", a);
        let mut c2 = root.split("x", a);
        prop_assert_eq!(c1.next_u64(), c2.next_u64());
        if a != b {
            let mut d = root.split("x", b);
            let mut c = root.split("x", a);
            prop_assert_ne!(c.next_u64(), d.next_u64());
        }
    }

    /// Time arithmetic: (t + d) - d == t for any values that do not
    /// overflow.
    #[test]
    fn time_roundtrip(t in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 2) {
        let time = SimTime::from_secs(t);
        let dur = SimDuration::from_secs(d);
        prop_assert_eq!((time + dur) - dur, time);
        prop_assert_eq!(((time + dur) - time).as_secs(), d);
    }

    /// LoRa airtime is positive, finite, and monotone in payload for any
    /// spreading factor.
    #[test]
    fn lora_airtime_monotone(payload in 1u32..200, sf_idx in 0usize..6) {
        let sf = net::lora::SpreadingFactor::ALL[sf_idx];
        let cfg = net::lora::LoraConfig::uplink(sf);
        let t1 = cfg.airtime_s(payload);
        let t2 = cfg.airtime_s(payload + 24);
        prop_assert!(t1.is_finite() && t1 > 0.0);
        prop_assert!(t2 >= t1);
    }

    /// Reliability block composition: a series system never outlives its
    /// weakest sampled member.
    #[test]
    fn series_never_outlives_members(seed in any::<u64>(), mttf1 in 1.0f64..50.0, mttf2 in 1.0f64..50.0) {
        use reliability::components::external_random;
        use reliability::Block;
        let s = Block::Series(vec![
            Block::Unit(external_random(mttf1)),
            Block::Unit(external_random(mttf2)),
        ]);
        let mut rng = Rng::seed_from(seed);
        let t = 5.0;
        // Analytic: S_series(t) <= min(S_1(t), S_2(t)).
        let s1 = (-t / mttf1).exp();
        let s2 = (-t / mttf2).exp();
        prop_assert!(s.survival(t) <= s1.min(s2) + 1e-12);
        prop_assert!(s.sample_ttf(&mut rng) >= 0.0);
    }

    /// Commissioning protocol: sessions are conserved — every attached
    /// device is, after any sequence of orderly migrations and disorderly
    /// failures, either live on some gateway or in the orphan list.
    #[test]
    fn commissioning_conserves_devices(
        devices in 1u32..60,
        keyed_mod in 1u32..5,
        ops in proptest::collection::vec(any::<bool>(), 0..8),
    ) {
        let mut r = Registry::new();
        r.add_factory(0);
        r.commission(0).unwrap();
        for d in 0..devices {
            let s = if d % keyed_mod == 0 { Session::Keyed { epoch: 0 } } else { Session::Forwarding };
            r.attach(0, d, s).unwrap();
        }
        let mut current = 0u32;
        let mut next_id = 1u32;
        let mut lost_forwarding = 0u32;
        for &orderly in &ops {
            if orderly {
                r.add_factory(next_id);
                if r.begin_migration(current, next_id).is_ok() {
                    r.complete_migration(current).unwrap();
                    current = next_id;
                    next_id += 1;
                }
            } else {
                // Disorderly death: keyed orphaned, forwarding lost from
                // the registry (they re-home out of band).
                let before = r.live_sessions() as u32;
                let orphaned = r.fail_without_handoff(current).unwrap_or(0) as u32;
                lost_forwarding += before - orphaned;
                // Stand up a fresh gateway; re-attach nothing (those
                // devices are gone from this registry's view).
                r.add_factory(next_id);
                r.commission(next_id).unwrap();
                current = next_id;
                next_id += 1;
            }
        }
        let live = r.live_sessions() as u32;
        let orphans = r.orphaned().len() as u32;
        prop_assert_eq!(live + orphans + lost_forwarding, devices);
    }

    /// Upgrade planner: installs always cover every mount at least once,
    /// and OnSupportEnd never accrues unsupported time.
    #[test]
    fn upgrade_planner_invariants(seed in any::<u64>(), mounts in 1u32..40) {
        use fleet::upgrade::{run, timeline, UpgradePolicy};
        use reliability::hazard::ExponentialHazard;
        let tl = timeline(10.0, 15.0, 30.0);
        let ttf = ExponentialHazard::with_mttf(5.0);
        let mut rng = Rng::seed_from(seed);
        let out = run(UpgradePolicy::OnSupportEnd, &ttf, &tl, mounts, 30.0, &mut rng);
        prop_assert!(out.installs >= mounts as u64);
        prop_assert!(out.unsupported_mount_years < 1e-9);
        prop_assert!(out.mean_heterogeneity >= 1.0 - 1e-9);
    }

    /// Workforce backlog conservation: served + final backlog equals total
    /// demand.
    #[test]
    fn backlog_conserves_demand(
        demand in proptest::collection::vec(0.0f64..500.0, 1..30),
        capacity in 1.0f64..300.0,
    ) {
        use fleet::workforce::{run_backlog, Workforce};
        let crew = Workforce::new(capacity, 1.0);
        let out = run_backlog(&demand, &crew);
        let total: f64 = demand.iter().sum();
        let served = out.worked.hours(); // 1 h per unit.
        let final_backlog = out.backlog.last().copied().unwrap_or(0.0);
        prop_assert!((served + final_backlog - total).abs() < 1e-6);
    }

    /// Person-hours scale linearly with task count.
    #[test]
    fn labor_linear(tasks in 0u64..100_000, mins in 1u64..120) {
        use econ::labor::recovery_effort;
        let one = recovery_effort(1, SimDuration::from_mins(mins)).hours();
        let many = recovery_effort(tasks, SimDuration::from_mins(mins)).hours();
        prop_assert!((many - one * tasks as f64).abs() < 1e-6 * (tasks as f64 + 1.0));
    }

    /// RNG child streams are independent: distinct labels or indices give
    /// streams that disagree in their first outputs, and a child never
    /// mirrors its parent.
    #[test]
    fn rng_split_streams_independent(seed in any::<u64>(), i in 0u64..500) {
        let root = Rng::seed_from(seed);
        let mut a = root.split("alpha", i);
        let mut b = root.split("beta", i);
        let mut c = root.split("alpha", i + 1);
        let mut parent = Rng::seed_from(seed);
        let av: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let cv: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        let pv: Vec<u64> = (0..4).map(|_| parent.next_u64()).collect();
        prop_assert_ne!(av.clone(), bv, "label must separate streams");
        prop_assert_ne!(av.clone(), cv, "index must separate streams");
        prop_assert_ne!(av, pv, "child must not mirror the parent");
    }

    /// `next_below` stays in range and is roughly uniform: with 2000
    /// draws over at most 20 buckets, every bucket count sits within
    /// ±50% of its expectation (5+ standard deviations of slack).
    #[test]
    fn next_below_uniform(seed in any::<u64>(), n in 2u64..20) {
        let mut rng = Rng::seed_from(seed);
        let draws = 2_000u64;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..draws {
            let v = rng.next_below(n);
            prop_assert!(v < n);
            counts[v as usize] += 1;
        }
        let expected = draws as f64 / n as f64;
        for (bucket, &c) in counts.iter().enumerate() {
            prop_assert!(
                (c as f64) > expected * 0.5 && (c as f64) < expected * 1.5,
                "bucket {} got {} of {} draws (expected ~{})",
                bucket, c, draws, expected
            );
        }
    }

    /// Shard planner: every arm lands in exactly one shard, owner lookup
    /// agrees with the groups, groups are ascending, and empty shards
    /// only ever form a suffix.
    #[test]
    fn shard_plan_partitions_exactly(
        weights in proptest::collection::vec(0u64..10_000, 0..40),
        shards in 1usize..12,
    ) {
        use fleet::shard::ShardPlan;
        let plan = ShardPlan::balance(&weights, shards).unwrap();
        prop_assert_eq!(plan.shards(), shards);
        let mut seen = vec![0u32; weights.len()];
        for (si, group) in plan.groups().iter().enumerate() {
            for w in group.windows(2) {
                prop_assert!(w[0] < w[1], "group {} not ascending", si);
            }
            for &ai in group {
                prop_assert!(ai < weights.len());
                seen[ai] += 1;
                prop_assert_eq!(plan.owner_of(ai), Some(si));
            }
        }
        prop_assert!(seen.iter().all(|&n| n == 1), "memberships {:?}", seen);
        prop_assert_eq!(plan.owner_of(weights.len()), None);
        if let Some(first_empty) = plan.groups().iter().position(Vec::is_empty) {
            prop_assert!(
                plan.groups()[first_empty..].iter().all(Vec::is_empty),
                "empty shards must be a suffix"
            );
        }
    }

    /// Shard planner: the per-shard load multiset depends only on the
    /// weight multiset — permuting the arm list cannot change how much
    /// work each shard carries.
    #[test]
    fn shard_plan_loads_invariant_under_permutation(
        weights in proptest::collection::vec(0u64..10_000, 1..30),
        shards in 1usize..8,
        rot in 0usize..30,
    ) {
        use fleet::shard::ShardPlan;
        // A rotation is an arbitrary-feeling permutation that proptest can
        // shrink; full permutations would need a vendored shuffle.
        let mut rotated = weights.clone();
        rotated.rotate_left(rot % weights.len());
        let a = ShardPlan::balance(&weights, shards).unwrap();
        let b = ShardPlan::balance(&rotated, shards).unwrap();
        // Compare load multisets via the respective weight lists.
        let mut la: Vec<u64> = a
            .groups()
            .iter()
            .map(|g| g.iter().map(|&ai| weights[ai].max(1)).sum())
            .collect();
        let mut lb: Vec<u64> = b
            .groups()
            .iter()
            .map(|g| g.iter().map(|&ai| rotated[ai].max(1)).sum())
            .collect();
        la.sort_unstable();
        lb.sort_unstable();
        prop_assert_eq!(la, lb, "load multiset changed under permutation");
    }

    /// Shard planner: more shards than arms degrades gracefully — each
    /// arm gets its own shard and the surplus stays empty.
    #[test]
    fn shard_plan_oversharding_degrades_to_singletons(
        weights in proptest::collection::vec(0u64..10_000, 1..10),
        extra in 1usize..10,
    ) {
        use fleet::shard::ShardPlan;
        let shards = weights.len() + extra;
        let plan = ShardPlan::balance(&weights, shards).unwrap();
        let nonempty: Vec<&Vec<usize>> =
            plan.groups().iter().filter(|g| !g.is_empty()).collect();
        prop_assert_eq!(nonempty.len(), weights.len(), "one arm per shard");
        for group in nonempty {
            prop_assert_eq!(group.len(), 1);
        }
    }

    /// RNG state round-trip: `from_state(state())` reproduces the exact
    /// draw sequence — the invariant the snapshot codec leans on to
    /// resume every per-arm stream mid-run.
    #[test]
    fn rng_state_roundtrip(seed in any::<u64>(), warmup in 0usize..64, draws in 1usize..64) {
        let mut rng = Rng::seed_from(seed);
        for _ in 0..warmup {
            let _ = rng.next_u64();
        }
        let mut twin = Rng::from_state(rng.state());
        for step in 0..draws {
            prop_assert_eq!(rng.next_u64(), twin.next_u64(), "diverged at draw {}", step);
        }
    }

    /// Drain-and-reseed round-trip: draining a queue and re-scheduling
    /// its events into a fresh queue preserves pop order exactly — the
    /// invariant a snapshot resume relies on, since snapshots store the
    /// pending events in pop order without their sequence numbers.
    #[test]
    fn event_queue_drain_reschedule_roundtrip(
        times in proptest::collection::vec(0u64..2_000, 1..150),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        // Drain: the checkpoint capture. Events come out in pop order.
        let mut drained = Vec::new();
        while let Some((t, payload)) = q.pop() {
            drained.push((t, payload));
        }
        // Reseed a fresh queue in drained order: the resume path.
        let mut fresh = EventQueue::new();
        for &(t, payload) in &drained {
            fresh.schedule(t, payload);
        }
        let mut replayed = Vec::new();
        while let Some(ev) = fresh.pop() {
            replayed.push(ev);
        }
        prop_assert_eq!(drained, replayed, "reseeded queue changed pop order");
    }

    /// Histogram bucketing is monotone in the observation, and each value
    /// lands in the first bucket whose upper bound is at or above it.
    #[test]
    fn histogram_bucketing_monotone(
        widths in proptest::collection::vec(0.1f64..10.0, 1..12),
        x in -5.0f64..130.0,
        dx in 0.0f64..50.0,
    ) {
        let mut bounds = Vec::with_capacity(widths.len());
        let mut acc = 0.0f64;
        for w in &widths {
            acc += w;
            bounds.push(acc);
        }
        let b = telemetry::Buckets::explicit(bounds.clone()).unwrap();
        let i = b.bucket_index(x);
        let j = b.bucket_index(x + dx);
        prop_assert!(i <= j, "monotonicity violated: {} then {}", i, j);
        prop_assert!(j <= bounds.len(), "overflow bucket is the last slot");
        if i < bounds.len() {
            prop_assert!(bounds[i] >= x, "chosen bound must cover the value");
        }
        if i > 0 {
            prop_assert!(bounds[i - 1] < x, "an earlier bucket would have fit");
        }
    }

    /// Binomial thinning moments: over 64 independent seeds, the sample
    /// mean sits within CLT bounds of `n·p` — in both the exact per-trial
    /// regime (`n ≤ 1024`) and the normal-approximation regime above it.
    /// This is the statistical license for the aggregate weekly sampler's
    /// one-draw-per-cohort thinning (DESIGN.md §13).
    #[test]
    fn binomial_thinning_moments_within_clt_bounds(seed in any::<u64>(), p in 0.05f64..0.95) {
        use simcore::dist::Binomial;
        const SEEDS: u64 = 64;
        for n in [168u64, 10_000] { // exact regime / normal regime
            let b = Binomial::new(n, p).unwrap();
            let mut sum = 0.0;
            for s in 0..SEEDS {
                let mut rng = Rng::seed_from(seed ^ (s.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
                let draw = b.sample(&mut rng);
                prop_assert!(draw <= n, "sample {} exceeds trials {}", draw, n);
                sum += draw as f64;
            }
            let mean = sum / SEEDS as f64;
            // 6 standard errors plus rounding slack: astronomically
            // unlikely to trip for a correct sampler, tight enough to
            // catch a mean or variance bug.
            let tol = 6.0 * (b.variance() / SEEDS as f64).sqrt() + 1.0;
            prop_assert!(
                (mean - b.mean()).abs() < tol,
                "n={} p={}: mean of {} draws was {} vs expected {} (tol {})",
                n, p, SEEDS, mean, b.mean(), tol
            );
        }
    }

    /// Common-random-numbers pin: every per-device stream is derived by a
    /// pure label split, so consuming (or never touching) device i's
    /// stream cannot move device j's draws. This is what lets the
    /// aggregate path kill, replace, or skip devices without perturbing
    /// any other device's randomness.
    #[test]
    fn crn_pin_device_streams_independent(
        seed in any::<u64>(),
        i in 0u64..500,
        j in 0u64..500,
        burn in 0usize..64,
    ) {
        let i = if i == j { i.wrapping_add(1) } else { i };
        let root = Rng::seed_from(seed);
        let draws_j = |root: &Rng| -> Vec<u64> {
            let mut r = root.split("replace", j);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let before = draws_j(&root);
        // "Kill" device i: burn an arbitrary amount of its stream.
        let mut ri = root.split("replace", i);
        for _ in 0..burn {
            let _ = ri.next_u64();
        }
        let after = draws_j(&root);
        prop_assert_eq!(before, after, "device {}'s stream moved device {}'s draws", i, j);
    }

    /// Cohort death-time order statistics: `sorted_uniforms` yields a
    /// non-decreasing sequence in [0,1], bit-identical for the same seed —
    /// the contract that lets the aggregate build hand device i the i-th
    /// order statistic and stay deterministic across rebuilds and shards.
    #[test]
    fn cohort_death_order_statistics_sorted_and_deterministic(
        seed in any::<u64>(),
        n in 1usize..400,
    ) {
        use simcore::dist::sorted_uniforms;
        let a = sorted_uniforms(n, &mut Rng::seed_from(seed).split("deaths", 0));
        let b = sorted_uniforms(n, &mut Rng::seed_from(seed).split("deaths", 0));
        prop_assert_eq!(a.len(), n);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&a), bits(&b), "same seed must reproduce the same order statistics");
        for (k, w) in a.windows(2).enumerate() {
            prop_assert!(w[0] <= w[1], "order statistics out of order at {}", k);
        }
        for &u in &a {
            prop_assert!((0.0..=1.0).contains(&u), "uniform {} out of range", u);
        }
    }

    /// Spatial grid ≡ brute force on random clouds: uniform scatter,
    /// tight clusters, collinear runs, empty sets, and everything in one
    /// cell — the grid's radius query must return exactly the brute-force
    /// neighbor set for any cell size and query.
    #[test]
    fn grid_radius_query_equals_brute_force(
        seed in any::<u64>(),
        shape in 0usize..4,
        n in 0usize..300,
        cell in 10.0f64..2_000.0,
        qx in -500.0f64..5_500.0,
        qy in -500.0f64..5_500.0,
        radius in 0.0f64..3_000.0,
    ) {
        use net::topology::{uniform_scatter, Point};
        use net::SpatialGrid;
        let mut rng = Rng::seed_from(seed);
        let points: Vec<Point> = match shape {
            // Uniform cloud.
            0 => uniform_scatter(n, 5_000.0, 5_000.0, &mut rng),
            // Tight clusters with wide gaps.
            1 => (0..n)
                .map(|i| {
                    let (cx, cy) = [(0.0, 0.0), (4_000.0, 200.0), (3_800.0, 4_500.0)][i % 3];
                    Point::new(cx + rng.next_f64() * 30.0, cy + rng.next_f64() * 30.0)
                })
                .collect(),
            // Collinear run (degenerate bounding box).
            2 => (0..n).map(|i| Point::new(i as f64 * 17.0, 250.0)).collect(),
            // Everything inside one cell.
            _ => (0..n)
                .map(|_| Point::new(rng.next_f64() * 5.0, rng.next_f64() * 5.0))
                .collect(),
        };
        let grid = SpatialGrid::build(&points, cell);
        let center = Point::new(qx, qy);
        let got = grid.within(center, radius);
        let want: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(&center) <= radius)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, want, "shape {} n {} cell {} r {}", shape, n, cell, radius);
    }

    /// Determinism pin: equal inputs give byte-equal, ascending-index
    /// query results — the ordering contract every grid-backed resolver's
    /// digest stability rests on.
    #[test]
    fn grid_query_order_is_ascending_and_reproducible(
        seed in any::<u64>(),
        n in 1usize..300,
        cell in 20.0f64..1_500.0,
        radius in 0.0f64..2_500.0,
    ) {
        use net::topology::uniform_scatter;
        use net::SpatialGrid;
        let points = uniform_scatter(n, 3_000.0, 3_000.0, &mut Rng::seed_from(seed));
        let center = points[n / 2];
        let a = SpatialGrid::build(&points, cell).within(center, radius);
        let b = SpatialGrid::build(&points, cell).within(center, radius);
        prop_assert_eq!(&a, &b, "same inputs must reproduce the same candidate list");
        for w in a.windows(2) {
            prop_assert!(w[0] < w[1], "candidates out of ascending order: {:?}", a);
        }
    }

    /// Serve frame decoder totality: the daemon's `read_frame`, fed
    /// arbitrary byte prefixes until it stops, ends every read in a frame,
    /// `Closed` or a typed error — never a panic, never a frame that
    /// consumes fewer than its 4-byte header, never a read past the input.
    /// The adversarial contract behind the daemon's "malformed frames
    /// cannot hang or kill the listener".
    #[test]
    fn serve_frame_decode_is_total(
        bytes in proptest::collection::vec(any::<u32>(), 0..200),
        max in 0u64..2_000_000,
    ) {
        use serve::frame::{read_frame, FrameError, ReadFrame};
        // Widen u32 lanes into raw bytes so headers of every magnitude
        // (tiny, huge, pathological) appear in the corpus.
        let raw: Vec<u8> = bytes.iter().flat_map(|w| w.to_be_bytes()).collect();
        for cut in [raw.len() / 3, raw.len() / 2, raw.len()] {
            let mut cursor = std::io::Cursor::new(&raw[..cut]);
            loop {
                let before = cursor.position();
                match read_frame(&mut cursor, max as usize) {
                    Ok(ReadFrame::Frame(_)) => {
                        prop_assert!(cursor.position() >= before + 4);
                        prop_assert!(cursor.position() <= cut as u64);
                    }
                    Ok(ReadFrame::Closed) => {
                        prop_assert_eq!(before, cut as u64);
                        break;
                    }
                    Ok(ReadFrame::Idle)
                    | Err(FrameError::Truncated)
                    | Err(FrameError::Oversized { .. })
                    | Err(FrameError::BadUtf8) => break,
                    Err(FrameError::Io(e)) => {
                        prop_assert!(false, "an in-memory read cannot fail: {}", e);
                    }
                }
            }
        }
    }

    /// Serve frame codec round-trip: every encodable payload reads back
    /// through `read_frame` to itself, and the read stops exactly at the
    /// frame boundary with trailing garbage unread.
    #[test]
    fn serve_frame_roundtrip(
        chars in proptest::collection::vec(0u32..0x11_0000, 0..120),
        trailer in proptest::collection::vec(any::<u32>(), 0..8),
    ) {
        use serve::frame::{encode, read_frame, ReadFrame, ABSOLUTE_MAX_FRAME};
        let payload: String =
            chars.iter().filter_map(|&c| char::from_u32(c)).collect();
        let mut framed = encode(&payload);
        let framed_len = framed.len();
        framed.extend(trailer.iter().flat_map(|w| w.to_be_bytes()));
        let mut cursor = std::io::Cursor::new(&framed);
        match read_frame(&mut cursor, ABSOLUTE_MAX_FRAME) {
            Ok(ReadFrame::Frame(got)) => {
                prop_assert_eq!(got, payload);
                prop_assert_eq!(
                    cursor.position(),
                    framed_len as u64,
                    "must stop exactly at the frame boundary"
                );
            }
            other => prop_assert!(false, "expected roundtrip, got {:?}", other),
        }
    }

    /// Serve protocol JSON parser totality: arbitrary UTF-8 (including
    /// object-shaped prefixes) never panics and never accepts nesting.
    #[test]
    fn serve_json_parse_is_total(
        bytes in proptest::collection::vec(any::<u32>(), 0..120),
        wrap in any::<bool>(),
    ) {
        use serve::json::parse_object;
        let raw: Vec<u8> = bytes.iter().flat_map(|w| w.to_be_bytes()).collect();
        let mut text = String::from_utf8_lossy(&raw).into_owned();
        if wrap {
            // Steer half the corpus toward almost-valid objects, where
            // the interesting parser paths live.
            text = format!("{{\"k\":{text}}}");
        }
        match parse_object(&text) {
            Ok(obj) => {
                for (key, _) in obj.fields() {
                    prop_assert!(!key.is_empty() || text.contains("\"\""));
                }
            }
            Err(e) => prop_assert!(e.at <= text.len()),
        }
    }

    /// Serve JSON escape/parse round-trip: any string value survives
    /// `push_escaped` → `parse_object` byte-for-byte, so digests and
    /// diary lines cross the wire unaltered.
    #[test]
    fn serve_json_escape_roundtrip(chars in proptest::collection::vec(0u32..0x11_0000, 0..120)) {
        use serve::json::{parse_object, push_escaped};
        let value: String = chars.iter().filter_map(|&c| char::from_u32(c)).collect();
        let mut text = String::from("{\"v\":");
        push_escaped(&mut text, &value);
        text.push('}');
        let obj = parse_object(&text).unwrap();
        prop_assert_eq!(obj.str_field("v"), Some(value.as_str()));
    }
}
