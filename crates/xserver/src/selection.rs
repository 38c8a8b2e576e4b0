//! ICCCM selection (clipboard) state (§IV-A, *Clipboard*; Figure 6).
//!
//! X11 has no central clipboard: copy & paste is an inter-client protocol
//! mediated by the server. This module tracks, per selection atom, the
//! current owner and any *in-flight transfer* — the window between a
//! `ConvertSelection` (paste request) and the requestor's final
//! `GetProperty`+delete. The in-flight record is what lets the server
//! enforce that:
//!
//! * only a transfer the server itself initiated may produce a
//!   `SelectionNotify` (blocking the forged-`SendEvent` bypass), and
//! * while clipboard data sits in a property "in flight", property events
//!   and reads are restricted to the paste target (blocking snooping).

use std::collections::BTreeMap;

use crate::protocol::{Atom, ClientId};
use crate::window::WindowId;

/// An in-flight clipboard transfer (steps 6–13 of Figure 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// The selection owner converting the data.
    pub source: ClientId,
    /// The paste target that requested conversion.
    pub target: ClientId,
    /// The requestor's window that will receive the property.
    pub requestor: WindowId,
    /// The property the data travels in.
    pub property: Atom,
    /// Set once the source stored the data (step 8).
    pub data_stored: bool,
    /// Set once the server delivered `SelectionNotify` (step 10).
    pub notified: bool,
}

/// Ownership and transfer state of one selection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelectionState {
    /// Current owner, with the window it asserted ownership through.
    pub owner: Option<(ClientId, WindowId)>,
    /// The in-flight transfer, if a paste is underway.
    pub transfer: Option<Transfer>,
}

/// All selections known to the server.
#[derive(Debug, Clone, Default)]
pub struct SelectionTable {
    selections: BTreeMap<Atom, SelectionState>,
}

impl SelectionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SelectionTable::default()
    }

    /// State of `selection`, creating the entry on first use.
    pub fn state_mut(&mut self, selection: &Atom) -> &mut SelectionState {
        self.selections.entry(selection.clone()).or_default()
    }

    /// Read-only state of `selection`, if it was ever used.
    pub fn state(&self, selection: &Atom) -> Option<&SelectionState> {
        self.selections.get(selection)
    }

    /// Current owner of `selection`.
    pub fn owner(&self, selection: &Atom) -> Option<ClientId> {
        self.selections
            .get(selection)
            .and_then(|s| s.owner.map(|(c, _)| c))
    }

    /// The in-flight transfer moving data through `property` on
    /// `requestor`, across all selections.
    pub fn transfer_for_property(
        &self,
        requestor: WindowId,
        property: &Atom,
    ) -> Option<(&Atom, &Transfer)> {
        self.selections.iter().find_map(|(atom, state)| {
            state
                .transfer
                .as_ref()
                .filter(|t| t.requestor == requestor && t.property == *property)
                .map(|t| (atom, t))
        })
    }

    /// Mutable variant of [`SelectionTable::transfer_for_property`].
    pub fn transfer_for_property_mut(
        &mut self,
        requestor: WindowId,
        property: &Atom,
    ) -> Option<(&Atom, &mut Transfer)> {
        self.selections.iter_mut().find_map(|(atom, state)| {
            state
                .transfer
                .as_mut()
                .filter(|t| t.requestor == requestor && t.property == *property)
                .map(|t| (atom as &Atom, t))
        })
    }

    /// Whether any transfer is currently in flight.
    pub fn any_transfer_in_flight(&self) -> bool {
        self.selections.values().any(|s| s.transfer.is_some())
    }

    /// Clears the transfer on `selection`.
    pub fn finish_transfer(&mut self, selection: &Atom) {
        if let Some(state) = self.selections.get_mut(selection) {
            state.transfer = None;
        }
    }

    /// Drops ownership and transfers held by a disconnecting client.
    pub fn purge_client(&mut self, client: ClientId) {
        for state in self.selections.values_mut() {
            if matches!(state.owner, Some((c, _)) if c == client) {
                state.owner = None;
            }
            if matches!(&state.transfer, Some(t) if t.source == client || t.target == client) {
                state.transfer = None;
            }
        }
    }
}

mod pack {
    //! Snapshot codec for selection (clipboard) state.

    use overhaul_sim::impl_pack;

    use super::{SelectionState, SelectionTable, Transfer};

    impl_pack!(Transfer {
        source,
        target,
        requestor,
        property,
        data_stored,
        notified
    });
    impl_pack!(SelectionState { owner, transfer });
    impl_pack!(SelectionTable { selections });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(n: u32) -> ClientId {
        ClientId::from_raw(n)
    }

    fn win(n: u64) -> WindowId {
        WindowId::from_raw(n)
    }

    #[test]
    fn ownership_round_trip() {
        let mut table = SelectionTable::new();
        assert_eq!(table.owner(&Atom::clipboard()), None);
        table.state_mut(&Atom::clipboard()).owner = Some((client(1), win(1)));
        assert_eq!(table.owner(&Atom::clipboard()), Some(client(1)));
        assert_eq!(
            table.owner(&Atom::primary()),
            None,
            "selections are independent"
        );
    }

    #[test]
    fn transfer_lookup_by_property() {
        let mut table = SelectionTable::new();
        table.state_mut(&Atom::clipboard()).transfer = Some(Transfer {
            source: client(1),
            target: client(2),
            requestor: win(5),
            property: Atom::new("XSEL_DATA"),
            data_stored: false,
            notified: false,
        });
        let (atom, t) = table
            .transfer_for_property(win(5), &Atom::new("XSEL_DATA"))
            .unwrap();
        assert_eq!(atom, &Atom::clipboard());
        assert_eq!(t.target, client(2));
        assert!(table
            .transfer_for_property(win(6), &Atom::new("XSEL_DATA"))
            .is_none());
        assert!(table
            .transfer_for_property(win(5), &Atom::new("OTHER"))
            .is_none());
    }

    #[test]
    fn finish_transfer_clears_state() {
        let mut table = SelectionTable::new();
        table.state_mut(&Atom::clipboard()).transfer = Some(Transfer {
            source: client(1),
            target: client(2),
            requestor: win(5),
            property: Atom::new("P"),
            data_stored: true,
            notified: true,
        });
        assert!(table.any_transfer_in_flight());
        table.finish_transfer(&Atom::clipboard());
        assert!(!table.any_transfer_in_flight());
    }

    #[test]
    fn purge_client_drops_ownership_and_transfers() {
        let mut table = SelectionTable::new();
        table.state_mut(&Atom::clipboard()).owner = Some((client(1), win(1)));
        table.state_mut(&Atom::clipboard()).transfer = Some(Transfer {
            source: client(1),
            target: client(2),
            requestor: win(5),
            property: Atom::new("P"),
            data_stored: false,
            notified: false,
        });
        table.purge_client(client(1));
        assert_eq!(table.owner(&Atom::clipboard()), None);
        assert!(!table.any_transfer_in_flight());
    }

    #[test]
    fn purge_unrelated_client_is_noop() {
        let mut table = SelectionTable::new();
        table.state_mut(&Atom::clipboard()).owner = Some((client(1), win(1)));
        table.purge_client(client(9));
        assert_eq!(table.owner(&Atom::clipboard()), Some(client(1)));
    }
}
