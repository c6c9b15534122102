//! R002 fixture A — mints the seed-rooted chain `shared-crn`.

fn policy_a(seed: u64) -> f64 {
    let base = Rng::seed_from(seed);
    let mut r = base.split("shared-crn", 0);
    r.next_f64()
}
