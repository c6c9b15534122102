//! R002 fixture B — mints the same seed-rooted chain as fixture A.

fn policy_b(seed: u64) -> f64 {
    let base = Rng::seed_from(seed);
    let mut r = base.split("shared-crn", 0);
    r.next_f64()
}
