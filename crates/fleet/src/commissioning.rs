//! The gateway commissioning and migration protocol (§3.2).
//!
//! *"The process should allow newer gateways to establish links with the
//! backhaul using secure mechanisms similar to those used for home router
//! commissioning. Additionally, when replacing existing gateway units, we
//! can have a process in place to utilize the outgoing gateway as a
//! trusted third party for easy migration of existing connected devices."*
//!
//! This module types that process as a small state machine over a
//! gateway's service records. Transitions are total functions returning
//! `Result`, so illegal protocol steps are unrepresentable at runtime and
//! the invariants ("a device never loses its session except by explicit
//! orphaning") are property-testable.

use std::collections::BTreeMap;

/// Identifier of a gateway generation/unit in the protocol.
pub type GatewayId = u32;
/// Identifier of an attached device.
pub type DeviceId = u32;

/// A device's standing with the gateway complex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Session {
    /// Connectionless: the gateway merely forwards (transmit-only devices).
    Forwarding,
    /// Keyed session for bidirectional/secured service.
    Keyed {
        /// The key epoch; bumped on every migration.
        epoch: u32,
    },
}

/// Protocol state of one gateway slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GatewayPhase {
    /// Fresh hardware, not yet trusted by the backhaul.
    Factory,
    /// In service: holds sessions for its devices.
    Commissioned,
    /// Handing over to a successor (the trusted-third-party window).
    Migrating {
        /// The successor gateway.
        to: GatewayId,
    },
    /// Retired after successful migration.
    Retired,
}

/// Errors for illegal protocol transitions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// Operation requires the gateway to be commissioned.
    NotCommissioned,
    /// The successor is not in the Factory phase.
    SuccessorNotFactory,
    /// Migration attempted while no migration is in progress.
    NoMigrationInProgress,
    /// A device id was not found on the source gateway.
    UnknownDevice(DeviceId),
}

impl core::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtocolError::NotCommissioned => f.write_str("gateway is not commissioned"),
            ProtocolError::SuccessorNotFactory => f.write_str("successor must be factory-fresh"),
            ProtocolError::NoMigrationInProgress => f.write_str("no migration in progress"),
            ProtocolError::UnknownDevice(d) => write!(f, "unknown device {d}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// One gateway's protocol record.
#[derive(Clone, Debug)]
pub struct GatewayRecord {
    /// Protocol phase.
    pub phase: GatewayPhase,
    /// Sessions held, by device.
    pub sessions: BTreeMap<DeviceId, Session>,
}

impl GatewayRecord {
    /// A factory-fresh record.
    pub fn factory() -> Self {
        GatewayRecord { phase: GatewayPhase::Factory, sessions: BTreeMap::new() }
    }
}

/// The commissioning registry for a deployment site.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    gateways: BTreeMap<GatewayId, GatewayRecord>,
    orphaned: Vec<DeviceId>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers factory-fresh hardware.
    pub fn add_factory(&mut self, id: GatewayId) {
        self.gateways.insert(id, GatewayRecord::factory());
    }

    /// Commissions a factory gateway onto the backhaul.
    pub fn commission(&mut self, id: GatewayId) -> Result<(), ProtocolError> {
        let rec = self.gateways.entry(id).or_insert_with(GatewayRecord::factory);
        match rec.phase {
            GatewayPhase::Factory => {
                rec.phase = GatewayPhase::Commissioned;
                Ok(())
            }
            _ => Err(ProtocolError::SuccessorNotFactory),
        }
    }

    /// Attaches a device to a commissioned gateway.
    pub fn attach(
        &mut self,
        gw: GatewayId,
        device: DeviceId,
        session: Session,
    ) -> Result<(), ProtocolError> {
        let rec = self.gateways.get_mut(&gw).ok_or(ProtocolError::NotCommissioned)?;
        if rec.phase != GatewayPhase::Commissioned {
            return Err(ProtocolError::NotCommissioned);
        }
        rec.sessions.insert(device, session);
        Ok(())
    }

    /// Begins migrating `old` to factory-fresh `new`: `new` is
    /// commissioned, `old` enters the trusted-third-party window.
    pub fn begin_migration(
        &mut self,
        old: GatewayId,
        new: GatewayId,
    ) -> Result<(), ProtocolError> {
        match self.gateways.get(&old).map(|r| &r.phase) {
            Some(GatewayPhase::Commissioned) => {}
            _ => return Err(ProtocolError::NotCommissioned),
        }
        match self.gateways.get_mut(&new) {
            Some(rec) if rec.phase == GatewayPhase::Factory => {
                rec.phase = GatewayPhase::Commissioned;
            }
            _ => return Err(ProtocolError::SuccessorNotFactory),
        }
        if let Some(rec) = self.gateways.get_mut(&old) {
            rec.phase = GatewayPhase::Migrating { to: new };
        }
        Ok(())
    }

    /// Completes a migration: every session moves to the successor with a
    /// bumped key epoch (the old gateway vouches, so devices need no
    /// manual re-provisioning); the old gateway retires.
    pub fn complete_migration(&mut self, old: GatewayId) -> Result<usize, ProtocolError> {
        let to = match self.gateways.get(&old).map(|r| r.phase.clone()) {
            Some(GatewayPhase::Migrating { to }) => to,
            _ => return Err(ProtocolError::NoMigrationInProgress),
        };
        let sessions = match self.gateways.get_mut(&old) {
            Some(rec) => std::mem::take(&mut rec.sessions),
            None => return Err(ProtocolError::NoMigrationInProgress),
        };
        let moved = sessions.len();
        let Some(successor) = self.gateways.get_mut(&to) else {
            // The successor record vanished mid-window: put the sessions
            // back so nothing is lost and report the broken handoff.
            if let Some(rec) = self.gateways.get_mut(&old) {
                rec.sessions = sessions;
            }
            return Err(ProtocolError::NotCommissioned);
        };
        for (dev, session) in sessions {
            let migrated = match session {
                Session::Forwarding => Session::Forwarding,
                Session::Keyed { epoch } => Session::Keyed { epoch: epoch + 1 },
            };
            successor.sessions.insert(dev, migrated);
        }
        if let Some(rec) = self.gateways.get_mut(&old) {
            rec.phase = GatewayPhase::Retired;
        }
        Ok(moved)
    }

    /// The disorderly path: the gateway died with no handoff. Keyed
    /// devices are orphaned (manual re-provisioning required);
    /// connectionless devices survive, homeless but re-attachable.
    pub fn fail_without_handoff(&mut self, gw: GatewayId) -> Result<usize, ProtocolError> {
        let rec = self.gateways.get_mut(&gw).ok_or(ProtocolError::NotCommissioned)?;
        let sessions = std::mem::take(&mut rec.sessions);
        rec.phase = GatewayPhase::Retired;
        let mut orphaned = 0;
        for (dev, session) in sessions {
            if matches!(session, Session::Keyed { .. }) {
                self.orphaned.push(dev);
                orphaned += 1;
            }
        }
        Ok(orphaned)
    }

    /// Looks up a device's session on a gateway.
    ///
    /// Returns [`ProtocolError::UnknownDevice`] when the gateway holds no
    /// session for `device`.
    pub fn session(&self, gw: GatewayId, device: DeviceId) -> Result<Session, ProtocolError> {
        let rec = self.gateways.get(&gw).ok_or(ProtocolError::NotCommissioned)?;
        rec.sessions
            .get(&device)
            .copied()
            .ok_or(ProtocolError::UnknownDevice(device))
    }

    /// The record for a gateway.
    pub fn gateway(&self, id: GatewayId) -> Option<&GatewayRecord> {
        self.gateways.get(&id)
    }

    /// Devices orphaned by disorderly failures so far.
    pub fn orphaned(&self) -> &[DeviceId] {
        &self.orphaned
    }

    /// Total live sessions across commissioned gateways.
    pub fn live_sessions(&self) -> usize {
        self.gateways
            .values()
            .filter(|r| matches!(r.phase, GatewayPhase::Commissioned | GatewayPhase::Migrating { .. }))
            .map(|r| r.sessions.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with_devices(n: u32) -> Registry {
        let mut r = Registry::new();
        r.add_factory(0);
        r.commission(0).expect("commission");
        for d in 0..n {
            let session = if d % 2 == 0 {
                Session::Forwarding
            } else {
                Session::Keyed { epoch: 0 }
            };
            r.attach(0, d, session).expect("attach");
        }
        r
    }

    #[test]
    fn orderly_migration_preserves_every_session() {
        let mut r = registry_with_devices(10);
        r.add_factory(1);
        r.begin_migration(0, 1).expect("begin");
        let moved = r.complete_migration(0).expect("complete");
        assert_eq!(moved, 10);
        assert_eq!(r.live_sessions(), 10);
        assert!(r.orphaned().is_empty());
        assert_eq!(r.gateway(0).unwrap().phase, GatewayPhase::Retired);
        assert_eq!(r.gateway(1).unwrap().phase, GatewayPhase::Commissioned);
    }

    #[test]
    fn migration_bumps_key_epochs_only_for_keyed() {
        let mut r = registry_with_devices(4);
        r.add_factory(1);
        r.begin_migration(0, 1).expect("begin");
        r.complete_migration(0).expect("complete");
        let gw1 = r.gateway(1).unwrap();
        assert_eq!(gw1.sessions[&0], Session::Forwarding);
        assert_eq!(gw1.sessions[&1], Session::Keyed { epoch: 1 });
    }

    #[test]
    fn disorderly_failure_orphans_keyed_devices() {
        let mut r = registry_with_devices(10);
        let orphaned = r.fail_without_handoff(0).expect("fail");
        assert_eq!(orphaned, 5, "half the sessions were keyed");
        assert_eq!(r.orphaned().len(), 5);
        assert_eq!(r.live_sessions(), 0);
    }

    #[test]
    fn cannot_migrate_to_commissioned_successor() {
        let mut r = registry_with_devices(2);
        r.add_factory(1);
        r.commission(1).expect("commission");
        assert_eq!(r.begin_migration(0, 1), Err(ProtocolError::SuccessorNotFactory));
    }

    #[test]
    fn cannot_attach_to_factory_gateway() {
        let mut r = Registry::new();
        r.add_factory(5);
        assert_eq!(
            r.attach(5, 0, Session::Forwarding),
            Err(ProtocolError::NotCommissioned)
        );
    }

    #[test]
    fn cannot_complete_without_begin() {
        let mut r = registry_with_devices(1);
        assert_eq!(r.complete_migration(0), Err(ProtocolError::NoMigrationInProgress));
    }

    #[test]
    fn double_commission_rejected() {
        let mut r = Registry::new();
        r.add_factory(0);
        r.commission(0).expect("first");
        assert!(r.commission(0).is_err());
    }

    #[test]
    fn chained_migrations_accumulate_epochs() {
        let mut r = registry_with_devices(2);
        for gen in 1u32..=3 {
            r.add_factory(gen);
            r.begin_migration(gen - 1, gen).expect("begin");
            r.complete_migration(gen - 1).expect("complete");
        }
        let last = r.gateway(3).unwrap();
        assert_eq!(last.sessions[&1], Session::Keyed { epoch: 3 });
        assert_eq!(r.live_sessions(), 2);
    }

    // One test per ProtocolError variant: every error the protocol can
    // emit is constructed through the public API.

    #[test]
    fn not_commissioned_variant() {
        // From attach on a factory gateway…
        let mut r = Registry::new();
        r.add_factory(5);
        assert_eq!(
            r.attach(5, 0, Session::Forwarding),
            Err(ProtocolError::NotCommissioned)
        );
        // …from migrating an unknown source…
        assert_eq!(r.begin_migration(99, 5), Err(ProtocolError::NotCommissioned));
        // …and from a disorderly failure of an unknown gateway.
        assert_eq!(r.fail_without_handoff(42), Err(ProtocolError::NotCommissioned));
    }

    #[test]
    fn successor_not_factory_variant() {
        let mut r = registry_with_devices(1);
        // Missing successor record.
        assert_eq!(r.begin_migration(0, 77), Err(ProtocolError::SuccessorNotFactory));
        // Already-commissioned successor.
        r.add_factory(1);
        r.commission(1).expect("commission");
        assert_eq!(r.begin_migration(0, 1), Err(ProtocolError::SuccessorNotFactory));
        // Double-commission reports the same phase violation.
        assert_eq!(r.commission(1), Err(ProtocolError::SuccessorNotFactory));
    }

    #[test]
    fn no_migration_in_progress_variant() {
        let mut r = registry_with_devices(1);
        assert_eq!(r.complete_migration(0), Err(ProtocolError::NoMigrationInProgress));
        // Completing twice: the second call finds the source retired.
        r.add_factory(1);
        r.begin_migration(0, 1).expect("begin");
        r.complete_migration(0).expect("complete");
        assert_eq!(r.complete_migration(0), Err(ProtocolError::NoMigrationInProgress));
    }

    #[test]
    fn unknown_device_variant() {
        let r = registry_with_devices(2);
        assert_eq!(r.session(0, 9), Err(ProtocolError::UnknownDevice(9)));
        // Known devices resolve.
        assert_eq!(r.session(0, 0), Ok(Session::Forwarding));
        assert_eq!(r.live_sessions(), 2);
    }

    #[test]
    fn aborted_begin_leaves_source_untouched() {
        // A failed begin_migration must not half-commit: the source stays
        // Commissioned when the successor check fails.
        let mut r = registry_with_devices(3);
        assert!(r.begin_migration(0, 77).is_err());
        assert_eq!(r.gateway(0).unwrap().phase, GatewayPhase::Commissioned);
        assert_eq!(r.live_sessions(), 3);
    }

    #[test]
    fn error_display() {
        assert!(ProtocolError::UnknownDevice(7).to_string().contains('7'));
        assert!(ProtocolError::NotCommissioned.to_string().contains("commissioned"));
        assert!(ProtocolError::SuccessorNotFactory.to_string().contains("factory"));
        assert!(ProtocolError::NoMigrationInProgress.to_string().contains("migration"));
    }
}
