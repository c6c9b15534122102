//! Prepaid data-credit wallets (§4.4).
//!
//! The paper's Helium arm relies on a striking property: data, once
//! purchased, has a **fixed price** denominated in credits, so a device's
//! entire 50-year communication budget can be prepaid today. One 24-byte
//! packet costs one credit; a packet an hour for 50 years needs
//! `24 × 365 × 50 = 438,000` credits; a $5 wallet holds 500,000.
//!
//! [`Wallet`] models provisioning, per-packet burns, and exhaustion.

use simcore::time::{SimDuration, SimTime, HOUR};

use crate::money::Usd;

/// The maximum payload covered by a single data credit, per the paper.
pub const BYTES_PER_CREDIT: u32 = 24;

/// Paper pricing: $5 buys 500,000 credits ($0.00001 per credit).
pub fn paper_credit_price() -> Usd {
    Usd::from_dollars(5) / 500_000
}

/// Credits needed to send one packet of `payload_bytes`.
///
/// Every started 24-byte unit costs one credit; zero-byte packets still
/// consume one (the network bills per transmission).
pub fn credits_for_packet(payload_bytes: u32) -> u64 {
    if payload_bytes == 0 {
        1
    } else {
        payload_bytes.div_ceil(BYTES_PER_CREDIT) as u64
    }
}

/// Credits needed for one packet of `payload_bytes` every `interval` over
/// `horizon` (the paper's provisioning arithmetic: hourly 24-byte packets
/// over 50 years = 438,000 credits).
pub fn credits_for_schedule(
    payload_bytes: u32,
    interval: SimDuration,
    horizon: SimDuration,
) -> u64 {
    if interval.is_zero() {
        return 0;
    }
    let packets = horizon.as_secs() / interval.as_secs();
    packets * credits_for_packet(payload_bytes)
}

/// Error returned when a wallet cannot cover a burn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsufficientCredits {
    /// Credits the operation needed.
    pub needed: u64,
    /// Credits actually available.
    pub available: u64,
}

impl core::fmt::Display for InsufficientCredits {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "insufficient data credits: needed {}, available {}",
            self.needed, self.available
        )
    }
}

impl std::error::Error for InsufficientCredits {}

/// A prepaid data-credit wallet dedicated to one device or deployment.
///
/// # Examples
///
/// ```
/// use econ::credits::{credits_for_schedule, Wallet};
/// use econ::money::Usd;
/// use simcore::time::{SimDuration, SimTime};
///
/// // The paper's provisioning: $5 -> 500,000 credits.
/// let mut w = Wallet::provision_dollars(Usd::from_dollars(5));
/// assert_eq!(w.balance(), 500_000);
///
/// // Hourly 24-byte packets for 50 years.
/// let need = credits_for_schedule(24, SimDuration::from_hours(1),
///                                 SimDuration::from_years(50));
/// assert_eq!(need, 438_000);
/// assert!(w.balance() >= need);
/// ```
#[derive(Clone, Debug)]
pub struct Wallet {
    balance: u64,
    burned: u64,
    funded: Usd,
    exhausted_at: Option<SimTime>,
}

impl Wallet {
    /// Creates a wallet holding `credits`.
    pub fn with_credits(credits: u64) -> Self {
        Wallet { balance: credits, burned: 0, funded: Usd::ZERO, exhausted_at: None }
    }

    /// Provisions a wallet by spending `amount` at the paper's fixed price
    /// ($0.00001/credit). Fractional credits are truncated.
    pub fn provision_dollars(amount: Usd) -> Self {
        let price = paper_credit_price();
        let credits = if amount.is_negative() {
            0
        } else {
            (amount.micros() / price.micros()) as u64
        };
        Wallet { balance: credits, burned: 0, funded: amount.max(Usd::ZERO), exhausted_at: None }
    }

    /// Remaining credits.
    pub fn balance(&self) -> u64 {
        self.balance
    }

    /// Credits burned so far.
    pub fn burned(&self) -> u64 {
        self.burned
    }

    /// Dollars originally spent funding the wallet.
    pub fn funded(&self) -> Usd {
        self.funded
    }

    /// When the wallet first failed to cover a burn, if ever.
    pub fn exhausted_at(&self) -> Option<SimTime> {
        self.exhausted_at
    }

    /// Burns credits for one packet of `payload_bytes` at time `now`.
    ///
    /// On failure records the exhaustion time (first failure only) and
    /// leaves the balance untouched.
    pub fn burn_packet(
        &mut self,
        now: SimTime,
        payload_bytes: u32,
    ) -> Result<(), InsufficientCredits> {
        let need = credits_for_packet(payload_bytes);
        if need > self.balance {
            if self.exhausted_at.is_none() {
                self.exhausted_at = Some(now);
            }
            return Err(InsufficientCredits { needed: need, available: self.balance });
        }
        self.balance -= need;
        self.burned += need;
        Ok(())
    }

    /// Burns credits for `count` identical packets of `payload_bytes` at
    /// time `now`, returning how many were paid for.
    ///
    /// Exactly equivalent to calling [`burn_packet`](Self::burn_packet)
    /// `count` times and stopping at the first failure — same final
    /// balance, same `burned` total, and `exhausted_at` is recorded at
    /// `now` iff fewer than `count` packets could be paid — but in O(1):
    /// one division instead of a loop. This is the weekly-delivery hot
    /// path; a 50-year fleet run burns millions of packets.
    pub fn burn_packets(&mut self, now: SimTime, payload_bytes: u32, count: u64) -> u64 {
        let need = credits_for_packet(payload_bytes);
        debug_assert!(need > 0, "every packet costs at least one credit");
        let paid = affordable(self.balance, need, count);
        let spent = paid * need;
        self.balance -= spent;
        self.burned += spent;
        if paid < count && self.exhausted_at.is_none() {
            self.exhausted_at = Some(now);
        }
        paid
    }

    /// Chaos: a top-up failure empties the wallet (payment processor gone,
    /// account closed, operator forgot). Returns the credits lost;
    /// `exhausted_at` is recorded by the next failed burn as usual.
    pub fn drain(&mut self) -> u64 {
        std::mem::take(&mut self.balance)
    }

    /// The wallet's full mutable state `(balance, burned, funded,
    /// exhausted_at)`, for checkpointing. Round-trips exactly through
    /// [`Wallet::from_raw_state`].
    pub fn raw_state(&self) -> (u64, u64, Usd, Option<SimTime>) {
        (self.balance, self.burned, self.funded, self.exhausted_at)
    }

    /// Rebuilds a wallet from state captured by [`Wallet::raw_state`].
    pub fn from_raw_state(
        balance: u64,
        burned: u64,
        funded: Usd,
        exhausted_at: Option<SimTime>,
    ) -> Self {
        Wallet { balance, burned, funded, exhausted_at }
    }

    /// How long the current balance lasts at one `payload_bytes` packet per
    /// `interval`. Returns [`SimDuration::MAX`] for a zero burn rate.
    pub fn runway(&self, payload_bytes: u32, interval: SimDuration) -> SimDuration {
        let per = credits_for_packet(payload_bytes);
        if per == 0 || interval.is_zero() {
            return SimDuration::MAX;
        }
        let packets = self.balance / per;
        SimDuration::from_secs(packets.saturating_mul(interval.as_secs()))
    }
}

/// A struct-of-arrays column of per-device wallets: the federated arm's
/// whole credit population in four parallel vectors.
///
/// Semantically a `Vec<Wallet>` — every per-index operation replicates
/// [`Wallet`]'s arithmetic exactly (pinned by the oracle test below) —
/// but laid out column-wise so the weekly bulk-burn scan touches only
/// the `balance`/`burned` columns instead of striding over whole wallet
/// structs, and so a million-device arm provisions in one allocation
/// per column rather than a million heap objects.
#[derive(Clone, Debug, Default)]
pub struct WalletColumn {
    balance: Vec<u64>,
    burned: Vec<u64>,
    funded: Vec<Usd>,
    exhausted_at: Vec<Option<SimTime>>,
}

impl WalletColumn {
    /// An empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Provisions `n` identical wallets, each funded with `amount` at the
    /// paper's fixed credit price (same arithmetic as
    /// [`Wallet::provision_dollars`]).
    pub fn provision_uniform(n: usize, amount: Usd) -> Self {
        let proto = Wallet::provision_dollars(amount);
        let (balance, burned, funded, exhausted) = proto.raw_state();
        WalletColumn {
            balance: vec![balance; n],
            burned: vec![burned; n],
            funded: vec![funded; n],
            exhausted_at: vec![exhausted; n],
        }
    }

    /// Number of wallets in the column.
    pub fn len(&self) -> usize {
        self.balance.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.balance.is_empty()
    }

    /// Materializes wallet `i` as a standalone [`Wallet`] (checkpointing
    /// and the per-device reference path). Returns `None` out of bounds.
    pub fn get(&self, i: usize) -> Option<Wallet> {
        Some(Wallet::from_raw_state(
            *self.balance.get(i)?,
            self.burned[i],
            self.funded[i],
            self.exhausted_at[i],
        ))
    }

    /// Overwrites wallet `i` from a standalone [`Wallet`] (device
    /// replacement re-provisioning and snapshot restore). Returns `false`
    /// out of bounds.
    pub fn set(&mut self, i: usize, wallet: &Wallet) -> bool {
        if i >= self.balance.len() {
            return false;
        }
        let (balance, burned, funded, exhausted) = wallet.raw_state();
        self.balance[i] = balance;
        self.burned[i] = burned;
        self.funded[i] = funded;
        self.exhausted_at[i] = exhausted;
        true
    }

    /// When wallet `i` first failed to cover a burn, if ever.
    pub fn exhausted_at(&self, i: usize) -> Option<SimTime> {
        self.exhausted_at.get(i).copied().flatten()
    }

    /// Burns credits from wallet `i` for `count` identical packets of
    /// `payload_bytes` at `now`, returning how many were paid for.
    ///
    /// Column-wise twin of [`Wallet::burn_packets`]: same division, same
    /// `burned` accounting, and `exhausted_at` records `now` iff fewer
    /// than `count` packets could be paid and no earlier exhaustion was
    /// recorded. Out-of-bounds indices pay nothing.
    pub fn burn_packets(&mut self, i: usize, now: SimTime, payload_bytes: u32, count: u64) -> u64 {
        let Some(balance) = self.balance.get_mut(i) else {
            return 0;
        };
        let need = credits_for_packet(payload_bytes);
        debug_assert!(need > 0, "every packet costs at least one credit");
        let paid = affordable(*balance, need, count);
        let spent = paid * need;
        *balance -= spent;
        self.burned[i] += spent;
        if paid < count && self.exhausted_at[i].is_none() {
            self.exhausted_at[i] = Some(now);
        }
        paid
    }

    /// Chaos: empties wallet `i` (see [`Wallet::drain`]). Returns the
    /// credits lost; `None` out of bounds.
    pub fn drain(&mut self, i: usize) -> Option<u64> {
        self.balance.get_mut(i).map(std::mem::take)
    }
}

/// How many of `count` packets at `need` credits each `balance` pays
/// for: `(balance / need).min(count)`, without the division when the
/// whole batch fits (the usual weekly burn of a funded wallet).
#[inline]
fn affordable(balance: u64, need: u64, count: u64) -> u64 {
    match count.checked_mul(need) {
        Some(cost) if cost <= balance => count,
        _ => (balance / need).min(count),
    }
}

/// Total cost of buying credits **as you go**, yearly, with the credit's
/// dollar price escalating at `price_escalation` per year (the risk the
/// paper's prepayment eliminates: "the price of data once purchased is
/// fixed").
///
/// Returns the nominal dollars spent over `years` for `credits_per_year`
/// at an initial price of `initial_price` per credit.
pub fn pay_as_you_go_cost(
    credits_per_year: u64,
    initial_price: Usd,
    price_escalation: f64,
    years: u32,
) -> Usd {
    assert!(
        price_escalation.is_finite() && price_escalation > -1.0,
        "escalation must be finite and > -1"
    );
    let mut total = Usd::ZERO;
    let mut factor = 1.0;
    for _ in 0..years {
        total += (initial_price * credits_per_year as i64).scale(factor);
        factor *= 1.0 + price_escalation;
    }
    total
}

/// The prepayment advantage: `(prepaid, pay_as_you_go)` totals for the
/// paper's 50-year hourly schedule at a given yearly price escalation.
pub fn prepay_vs_payg(price_escalation: f64) -> (Usd, Usd) {
    let prepaid = paper::provisioned_cost();
    let yearly_credits = 24 * 365; // Hourly 24-B packets.
    let payg = pay_as_you_go_cost(
        yearly_credits,
        paper_credit_price(),
        price_escalation,
        50,
    );
    (prepaid, payg)
}

/// The paper's headline wallet arithmetic, kept as named constants for the
/// E8 exhibit.
pub mod paper {
    use super::*;

    /// Packets per hour in the paper's scenario.
    pub const PACKET_INTERVAL: SimDuration = SimDuration::from_secs(HOUR);

    /// Paper's stated 50-year credit need for one hourly device.
    pub const FIFTY_YEAR_CREDITS: u64 = 438_000;

    /// Paper's suggested conservative provisioning.
    pub const PROVISIONED_CREDITS: u64 = 500_000;

    /// Paper's cost for the provisioned wallet.
    pub fn provisioned_cost() -> Usd {
        Usd::from_dollars(5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_credit_rounding() {
        assert_eq!(credits_for_packet(0), 1);
        assert_eq!(credits_for_packet(1), 1);
        assert_eq!(credits_for_packet(24), 1);
        assert_eq!(credits_for_packet(25), 2);
        assert_eq!(credits_for_packet(48), 2);
        assert_eq!(credits_for_packet(49), 3);
    }

    #[test]
    fn paper_fifty_year_arithmetic() {
        // 24 bytes hourly for 50 years: 24*365*50 packets = 438,000 credits.
        let need = credits_for_schedule(
            24,
            SimDuration::from_hours(1),
            SimDuration::from_years(50),
        );
        assert_eq!(need, paper::FIFTY_YEAR_CREDITS);
        // And the $5 wallet covers it with 62,000 credits of margin.
        let w = Wallet::provision_dollars(paper::provisioned_cost());
        assert_eq!(w.balance(), paper::PROVISIONED_CREDITS);
        assert!(w.balance() - need == 62_000);
    }

    #[test]
    fn provision_truncates_fractional_credits() {
        let w = Wallet::provision_dollars(Usd::from_micros(25));
        assert_eq!(w.balance(), 2); // 25 / 10 = 2.5 -> 2.
        let neg = Wallet::provision_dollars(Usd::from_dollars(-1));
        assert_eq!(neg.balance(), 0);
        assert_eq!(neg.funded(), Usd::ZERO);
    }

    #[test]
    fn burn_decrements_and_tracks() {
        let mut w = Wallet::with_credits(3);
        assert!(w.burn_packet(SimTime::ZERO, 24).is_ok());
        assert_eq!(w.balance(), 2);
        assert!(w.burn_packet(SimTime::ZERO, 40).is_ok()); // Needs 2, has 2.
        assert_eq!(w.balance(), 0);
        assert_eq!(w.burned(), 3);
    }

    #[test]
    fn burn_multi_credit_packet() {
        let mut w = Wallet::with_credits(3);
        assert!(w.burn_packet(SimTime::ZERO, 40).is_ok()); // 2 credits.
        assert_eq!(w.balance(), 1);
        assert_eq!(w.burned(), 2);
        let err = w.burn_packet(SimTime::from_secs(10), 40).unwrap_err();
        assert_eq!(err, InsufficientCredits { needed: 2, available: 1 });
        assert_eq!(w.balance(), 1, "failed burn must not deduct");
    }

    #[test]
    fn exhaustion_records_first_failure_time() {
        let mut w = Wallet::with_credits(1);
        assert!(w.burn_packet(SimTime::from_secs(5), 24).is_ok());
        assert_eq!(w.exhausted_at(), None);
        let t1 = SimTime::from_secs(10);
        assert!(w.burn_packet(t1, 24).is_err());
        assert!(w.burn_packet(SimTime::from_secs(20), 24).is_err());
        assert_eq!(w.exhausted_at(), Some(t1));
    }

    /// The loop `burn_packets` replaces, kept as the test oracle.
    fn burn_packets_loop(w: &mut Wallet, now: SimTime, payload_bytes: u32, count: u64) -> u64 {
        let mut paid = 0;
        for _ in 0..count {
            if w.burn_packet(now, payload_bytes).is_err() {
                break;
            }
            paid += 1;
        }
        paid
    }

    #[test]
    fn bulk_burn_matches_per_packet_loop() {
        // Cover: plenty of balance, exact fit, partial fit with a
        // multi-credit packet, already-exhausted, and zero count.
        let cases = [
            (500_000u64, 24u32, 168u64),
            (10, 24, 10),
            (7, 40, 5),   // 2 credits per packet, 3 paid, 1 left over.
            (0, 24, 4),
            (100, 24, 0), // Zero packets must not record exhaustion.
        ];
        for (credits, bytes, count) in cases {
            let mut bulk = Wallet::with_credits(credits);
            let mut looped = Wallet::with_credits(credits);
            let now = SimTime::from_secs(1_234);
            let paid_bulk = bulk.burn_packets(now, bytes, count);
            let paid_loop = burn_packets_loop(&mut looped, now, bytes, count);
            assert_eq!(paid_bulk, paid_loop, "case {credits}/{bytes}/{count}");
            assert_eq!(bulk.balance(), looped.balance());
            assert_eq!(bulk.burned(), looped.burned());
            assert_eq!(bulk.exhausted_at(), looped.exhausted_at());
        }
    }

    #[test]
    fn bulk_burn_equals_the_division_formula_at_the_edges() {
        let now = SimTime::from_secs(7);
        for bytes in [24, 25, 240] {
            let need = credits_for_packet(bytes);
            for count in [0, 1, 168] {
                let balances =
                    [0, need - 1, (count * need).saturating_sub(1), count * need, u64::MAX];
                for balance in balances {
                    let paid = (balance / need).min(count);
                    let spent = paid * need;
                    let exhausted = (paid < count).then_some(now);
                    let case = format!("balance {balance}, need {need}, count {count}");

                    let mut w = Wallet::with_credits(balance);
                    assert_eq!(w.burn_packets(now, bytes, count), paid, "{case}");
                    assert_eq!(w.balance(), balance - spent, "{case}");
                    assert_eq!(w.burned(), spent, "{case}");
                    assert_eq!(w.exhausted_at(), exhausted, "{case}");

                    let mut col = WalletColumn::provision_uniform(2, Usd::ZERO);
                    assert!(col.set(1, &Wallet::with_credits(balance)));
                    assert_eq!(col.burn_packets(1, now, bytes, count), paid, "{case}");
                    assert_eq!(col.get(1).map(|c| c.raw_state()), Some(w.raw_state()), "{case}");
                    assert_eq!(col.exhausted_at(1), exhausted, "{case}");
                    let untouched = Wallet::provision_dollars(Usd::ZERO).raw_state();
                    assert_eq!(col.get(0).map(|c| c.raw_state()), Some(untouched), "{case}");
                }
            }
        }
    }

    #[test]
    fn bulk_burn_records_first_exhaustion_only() {
        let mut w = Wallet::with_credits(3);
        let t1 = SimTime::from_secs(10);
        assert_eq!(w.burn_packets(t1, 24, 5), 3);
        assert_eq!(w.exhausted_at(), Some(t1));
        assert_eq!(w.burn_packets(SimTime::from_secs(20), 24, 5), 0);
        assert_eq!(w.exhausted_at(), Some(t1), "later failures keep the first time");
    }

    #[test]
    fn runway_matches_schedule() {
        let w = Wallet::with_credits(paper::PROVISIONED_CREDITS);
        let run = w.runway(24, SimDuration::from_hours(1));
        // 500,000 hourly packets ≈ 57.08 years.
        assert!((run.as_years_f64() - 57.077).abs() < 0.01, "{run}");
        assert_eq!(w.runway(24, SimDuration::ZERO), SimDuration::MAX);
    }

    #[test]
    fn schedule_with_zero_interval_is_zero() {
        assert_eq!(
            credits_for_schedule(24, SimDuration::ZERO, SimDuration::from_years(1)),
            0
        );
    }

    #[test]
    fn payg_flat_price_costs_the_used_credits_only() {
        // At zero escalation, paying as you go costs exactly the credits
        // used: 438,000 * $0.00001 = $4.38 — cheaper than the $5 wallet's
        // 62,000-credit margin.
        let (prepaid, payg) = prepay_vs_payg(0.0);
        assert_eq!(prepaid, Usd::from_dollars(5));
        assert_eq!(payg, Usd::from_cents(438));
    }

    #[test]
    fn escalation_makes_prepayment_win() {
        // At 5 %/yr credit-price escalation the 50-year bill balloons.
        let (prepaid, payg) = prepay_vs_payg(0.05);
        assert!(payg > prepaid * 3, "payg {payg} vs prepaid {prepaid}");
        // And the advantage is monotone in the escalation rate.
        let (_, payg_low) = prepay_vs_payg(0.02);
        assert!(payg > payg_low);
    }

    #[test]
    fn payg_arithmetic() {
        // 100 credits/yr at $0.01 for 3 years, 10% escalation:
        // 1.00 + 1.10 + 1.21 = $3.31.
        let total = pay_as_you_go_cost(100, Usd::from_cents(1), 0.10, 3);
        assert_eq!(total, Usd::from_cents(331));
        assert_eq!(pay_as_you_go_cost(100, Usd::from_cents(1), 0.10, 0), Usd::ZERO);
    }

    #[test]
    fn error_displays() {
        let e = InsufficientCredits { needed: 2, available: 1 };
        assert!(e.to_string().contains("needed 2"));
    }

    #[test]
    fn wallet_column_matches_vec_of_wallets_oracle() {
        // Drive a column and a Vec<Wallet> through an identical script of
        // burns, drains, and overwrites; every observable must agree.
        let n = 8;
        let amount = Usd::from_dollars(5);
        let mut col = WalletColumn::provision_uniform(n, amount);
        let mut oracle: Vec<Wallet> = (0..n).map(|_| Wallet::provision_dollars(amount)).collect();
        assert_eq!(col.len(), n);
        assert!(!col.is_empty());

        let script: &[(usize, u64, u32, u64)] = &[
            (0, 0, 24, 168),
            (1, 100, 40, 5),
            (2, 200, 24, 600_000), // Overdraw: partial pay + exhaustion.
            (2, 300, 24, 10),      // Already exhausted: keeps first time.
            (5, 400, 24, 0),       // Zero count: no-op, no exhaustion.
        ];
        for &(i, secs, bytes, count) in script {
            let now = SimTime::from_secs(secs);
            let a = col.burn_packets(i, now, bytes, count);
            let b = oracle[i].burn_packets(now, bytes, count);
            assert_eq!(a, b, "paid at {i}/{secs}");
        }
        assert_eq!(col.drain(3), Some(oracle[3].drain()));
        let fresh = Wallet::provision_dollars(amount);
        assert!(col.set(2, &fresh));
        oracle[2] = fresh.clone();

        for (i, w) in oracle.iter().enumerate() {
            let got = col.get(i).unwrap();
            assert_eq!(got.balance(), w.balance(), "balance {i}");
            assert_eq!(got.burned(), w.burned(), "burned {i}");
            assert_eq!(got.funded(), w.funded(), "funded {i}");
            assert_eq!(got.exhausted_at(), w.exhausted_at(), "exhausted {i}");
            assert_eq!(col.exhausted_at(i), w.exhausted_at());
        }
        // Out-of-bounds accesses are inert.
        assert_eq!(col.burn_packets(n, SimTime::ZERO, 24, 1), 0);
        assert_eq!(col.drain(n), None);
        assert!(!col.set(n, &fresh));
        assert!(col.get(n).is_none());
        assert_eq!(col.exhausted_at(n), None);
    }

    #[test]
    fn drain_empties_wallet_and_next_burn_records_exhaustion() {
        let mut w = Wallet::with_credits(10_000);
        let lost = w.drain();
        assert_eq!(lost, 10_000);
        assert_eq!(w.balance(), 0);
        assert!(w.exhausted_at().is_none(), "recorded only on failed burn");
        let now = SimTime::from_years(3);
        assert!(w.burn_packet(now, 24).is_err());
        assert_eq!(w.exhausted_at(), Some(now));
    }
}
