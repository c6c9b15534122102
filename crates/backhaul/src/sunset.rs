//! Technology sunsets: spectrum reclamation as an obsolescence process.
//!
//! §3.4: *"In some cases, such as the sunset of 2G wireless technologies,
//! device owners have no option: a fixed resource (spectrum) that they do
//! not own or control is taken away, and devices must be replaced."*
//!
//! A [`SunsetSchedule`] is the timeline of generation launches and sunsets;
//! [`stranding_events`] computes, for a fleet attached per-generation, when
//! and how many attachments are forcibly severed over a horizon.

use simcore::time::SimTime;

use crate::tech::CellularGen;

/// One forced-migration event: a generation sunsets, severing attachments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StrandingEvent {
    /// When the sunset takes effect.
    pub at: SimTime,
    /// The generation being retired.
    pub generation: CellularGen,
    /// Number of attachments severed.
    pub stranded: u64,
}

/// A generation timeline. The default schedule is
/// [`CellularGen::window_years`]; tests and ablations can supply their own.
#[derive(Clone, Debug)]
pub struct SunsetSchedule {
    /// `(generation, sunset year relative to epoch)` pairs, sunset order.
    pub sunsets: Vec<(CellularGen, f64)>,
}

impl Default for SunsetSchedule {
    fn default() -> Self {
        let mut sunsets: Vec<(CellularGen, f64)> = CellularGen::ALL
            .into_iter()
            .map(|g| (g, g.window_years().1))
            .collect();
        sunsets.sort_by(|a, b| a.1.total_cmp(&b.1));
        SunsetSchedule { sunsets }
    }
}

impl SunsetSchedule {
    /// The sunset year of a generation, if it sunsets within the schedule.
    pub fn sunset_of(&self, g: CellularGen) -> Option<f64> {
        self.sunsets.iter().find(|&&(gen, _)| gen == g).map(|&(_, y)| y)
    }
}

/// Computes the stranding events for a fleet of `attached(gen)` gateway
/// attachments per generation over `horizon_years`.
///
/// Attachments to a sunsetting generation are severed at the sunset; the
/// caller decides whether they migrate (a cost) or strand their devices.
pub fn stranding_events(
    schedule: &SunsetSchedule,
    attached: impl Fn(CellularGen) -> u64,
    horizon_years: f64,
) -> Vec<StrandingEvent> {
    schedule
        .sunsets
        .iter()
        .filter(|&&(_, y)| (0.0..horizon_years).contains(&y))
        .map(|&(generation, y)| StrandingEvent {
            at: SimTime::from_secs((y * simcore::time::YEAR as f64) as u64),
            generation,
            stranded: attached(generation),
        })
        .filter(|e| e.stranded > 0)
        .collect()
}

/// The migrate-forward policy: attachments on a sunsetting generation move
/// to the newest generation in service. Returns, for each sunset within the
/// horizon, `(event, migrated_to)` — `None` when nothing newer exists and
/// the attachments are permanently stranded.
pub fn migrate_forward(
    schedule: &SunsetSchedule,
    initial_attachment: CellularGen,
    horizon_years: f64,
) -> Vec<(f64, Option<CellularGen>)> {
    let mut current = initial_attachment;
    let mut out = Vec::new();
    while let Some(sunset) = schedule.sunset_of(current) {
        if sunset >= horizon_years || sunset < 0.0 {
            break;
        }
        let next = CellularGen::newest_at(sunset);
        out.push((sunset, next));
        match next {
            Some(g) if g != current => current = g,
            _ => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_sorted() {
        let s = SunsetSchedule::default();
        for pair in s.sunsets.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        assert_eq!(s.sunsets.len(), 4);
    }

    #[test]
    fn sunset_lookup() {
        let s = SunsetSchedule::default();
        assert_eq!(s.sunset_of(CellularGen::G2), Some(2.0));
        assert_eq!(s.sunset_of(CellularGen::G5), Some(32.0));
    }

    #[test]
    fn stranding_counts_attachments() {
        let s = SunsetSchedule::default();
        let events = stranding_events(
            &s,
            |g| match g {
                CellularGen::G3 => 120,
                CellularGen::G4 => 500,
                _ => 0,
            },
            50.0,
        );
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].generation, CellularGen::G3);
        assert_eq!(events[0].stranded, 120);
        assert_eq!(events[0].at.year(), 12);
        assert_eq!(events[1].stranded, 500);
    }

    #[test]
    fn migrate_forward_chains_until_nothing_newer() {
        let s = SunsetSchedule::default();
        let hops = migrate_forward(&s, CellularGen::G4, 50.0);
        // 4G dies at 22 -> move to 5G; 5G dies at 32 -> nothing newer.
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0], (22.0, Some(CellularGen::G5)));
        assert_eq!(hops[1].0, 32.0);
        assert_eq!(hops[1].1, None);
    }

    #[test]
    fn migrate_forward_within_short_horizon() {
        let s = SunsetSchedule::default();
        let hops = migrate_forward(&s, CellularGen::G4, 20.0);
        assert!(hops.is_empty(), "no sunsets for 4G inside 20 years");
    }

    #[test]
    fn no_events_for_empty_fleet() {
        let s = SunsetSchedule::default();
        assert!(stranding_events(&s, |_| 0, 50.0).is_empty());
    }
}
