//! The secure kernel↔display-manager communication channel (§IV-B).
//!
//! The prototype used Linux netlink for the channel and solved the
//! authentication problem by kernel introspection: "it examines the virtual
//! memory maps to check whether the process it is communicating with is
//! indeed the X server ... whether the executable code mapped into the
//! process is loaded from the well-known, and superuser-owned, filesystem
//! path for the X binaries."
//!
//! Here a [`Netlink`] registry tracks connections; [`Netlink::connect`]
//! performs that introspection against the process table and VFS. Messages
//! from unauthenticated connections are rejected, which is what the
//! malicious-interposer tests exercise.
//!
//! On top of the registry sits the channel's failure model: every
//! connection carries per-message sequence numbers with an idempotent
//! delivery record (so duplicated deliveries are suppressed), and the
//! registry tracks the health of the display-manager channel as an explicit
//! [`ChannelState`] machine that the permission monitor consults to fail
//! closed while the channel is down. Connections are invalidated *eagerly*
//! from the process-exit path — a recycled pid can never inherit an
//! authenticated channel.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use overhaul_sim::{Pid, Timestamp};

// Defined in `overhaul-sim`, so the ledger records channel health without
// a mirror type.
pub use overhaul_sim::ChannelState;

use crate::monitor::{Decision, ResourceOp};
use crate::process::ProcessTable;
use crate::vfs::Vfs;

/// Identifier of an established netlink connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(u32);

impl ConnId {
    /// The raw value.
    pub const fn as_raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nl:{}", self.0)
    }
}

/// A message sent from userspace to the kernel over the channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlinkMessage {
    /// `N_{A,t}`: the display manager authenticated a hardware input event
    /// delivered to the client owned by `pid` at `at`.
    InteractionNotification {
        /// X client process.
        pid: Pid,
        /// Event delivery time.
        at: Timestamp,
    },
    /// `Q_{A,t+n}`: may `pid` perform `op` at `at`?
    PermissionQuery {
        /// Requesting process.
        pid: Pid,
        /// Operation class.
        op: ResourceOp,
        /// Operation time.
        at: Timestamp,
    },
    /// The trusted udev helper reports that a sensitive device moved to a
    /// new filesystem path.
    DeviceMapUpdate {
        /// Old node path (empty if the device is new).
        old_path: String,
        /// New node path.
        new_path: String,
    },
}

/// The kernel's reply to a [`NetlinkMessage`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetlinkReply {
    /// Message accepted (notifications, map updates).
    Ack,
    /// `R_{A,t+n}`: answer to a permission query.
    QueryResponse(Decision),
}

/// Why a connection attempt or message was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetlinkError {
    /// The peer process does not exist.
    NoSuchProcess,
    /// The peer's executable is not a trusted, superuser-owned binary at a
    /// well-known path.
    UntrustedPeer,
    /// The connection id is not registered.
    UnknownConnection,
    /// The message was lost in flight and every retry failed; the channel
    /// is down and the sender must treat the exchange as failed (closed).
    ChannelDown,
    /// VM-map introspection could not complete because a filesystem stat
    /// failed transiently; the caller may retry authentication.
    AuthTransient,
}

impl fmt::Display for NetlinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NetlinkError::NoSuchProcess => "netlink peer process does not exist",
            NetlinkError::UntrustedPeer => "netlink peer failed VM-map authentication",
            NetlinkError::UnknownConnection => "unknown netlink connection",
            NetlinkError::ChannelDown => "netlink message lost after retries; channel down",
            NetlinkError::AuthTransient => "netlink authentication failed transiently",
        })
    }
}

impl std::error::Error for NetlinkError {}

/// How many delivered sequence numbers each connection remembers for
/// duplicate suppression.
const DELIVERY_RECORD: usize = 64;

#[derive(Debug, Clone)]
struct Connection {
    pid: Pid,
    is_display: bool,
    next_seq: u64,
    delivered: BTreeSet<u64>,
    /// Suppression floor: every sequence number `<= watermark` is treated
    /// as already delivered. The floor trails the highest freshly delivered
    /// seq by exactly [`DELIVERY_RECORD`], so it is a pure function of the
    /// delivery history — the `delivered` set is a *derived* dup-suppression
    /// record that snapshots rebuild empty without changing how the floor
    /// evolves afterwards.
    watermark: u64,
}

/// Registry of authenticated kernel↔userspace channels.
#[derive(Debug, Clone)]
pub struct Netlink {
    connections: BTreeMap<ConnId, Connection>,
    next: u32,
    display_conn: Option<ConnId>,
    display_state: ChannelState,
    /// Bumped on every display-channel state change; folded into the
    /// kernel's global policy epoch so the verdict cache invalidates on
    /// channel transitions.
    state_generation: u64,
    had_display: bool,
    display_reconnects: u64,
}

impl Default for Netlink {
    /// An empty registry with the display channel down.
    fn default() -> Self {
        Netlink {
            connections: BTreeMap::new(),
            next: 0,
            display_conn: None,
            display_state: ChannelState::Down,
            state_generation: 0,
            had_display: false,
            display_reconnects: 0,
        }
    }
}

impl Netlink {
    /// Attempts to establish an authenticated connection for `pid`.
    ///
    /// Reproduces the paper's introspection: the peer's mapped executable
    /// must be one of the well-known `trusted` paths (the kernel's
    /// [`crate::KernelConfig::trusted_netlink_paths`]), and that binary must
    /// be owned by the superuser in the filesystem (so a user cannot drop a
    /// fake `Xorg` somewhere and connect).
    ///
    /// A connecting X server supersedes any previous display connection:
    /// the old [`ConnId`] is invalidated (restart recovery), the new one
    /// becomes the display channel, and the channel comes up.
    ///
    /// # Errors
    ///
    /// [`NetlinkError::NoSuchProcess`] if `pid` is dead,
    /// [`NetlinkError::UntrustedPeer`] if introspection fails.
    pub fn connect(
        &mut self,
        tasks: &ProcessTable,
        vfs: &Vfs,
        pid: Pid,
        trusted: &[String],
    ) -> Result<ConnId, NetlinkError> {
        let task = tasks.get(pid).map_err(|_| NetlinkError::NoSuchProcess)?;
        if !task.is_running() {
            return Err(NetlinkError::NoSuchProcess);
        }
        let exe = task.exe_path();
        if !trusted.iter().any(|p| p == exe) {
            return Err(NetlinkError::UntrustedPeer);
        }
        let owner = vfs
            .stat(exe)
            .map_err(|_| NetlinkError::UntrustedPeer)?
            .owner;
        if !owner.is_root() {
            return Err(NetlinkError::UntrustedPeer);
        }
        let is_display = exe == crate::XORG_PATH;
        self.next += 1;
        let id = ConnId(self.next);
        self.connections.insert(
            id,
            Connection {
                pid,
                is_display,
                next_seq: 0,
                delivered: BTreeSet::new(),
                watermark: 0,
            },
        );
        if is_display {
            if let Some(old) = self.display_conn.take() {
                self.connections.remove(&old);
            }
            if self.had_display {
                self.display_reconnects += 1;
            }
            self.had_display = true;
            self.display_conn = Some(id);
            self.display_state = ChannelState::Up;
            self.state_generation += 1;
        }
        Ok(id)
    }

    /// The peer pid of an established connection.
    pub fn peer(&self, conn: ConnId) -> Result<Pid, NetlinkError> {
        self.connections
            .get(&conn)
            .map(|c| c.pid)
            .ok_or(NetlinkError::UnknownConnection)
    }

    /// Validates that `conn` is established, returning its peer.
    pub fn authenticate(&self, conn: ConnId) -> Result<Pid, NetlinkError> {
        self.peer(conn)
    }

    /// Whether `conn` is the current display-manager connection.
    pub fn is_display(&self, conn: ConnId) -> bool {
        self.display_conn == Some(conn)
    }

    /// Health of the display-manager channel.
    pub fn state(&self) -> ChannelState {
        self.display_state
    }

    /// Monotone counter of display-channel state changes (the channel's
    /// contribution to the global policy epoch).
    pub fn state_generation(&self) -> u64 {
        self.state_generation
    }

    /// Times a new display connection superseded an earlier one.
    pub fn display_reconnects(&self) -> u64 {
        self.display_reconnects
    }

    /// Assigns the next per-connection sequence number for an outgoing
    /// message.
    ///
    /// # Errors
    ///
    /// [`NetlinkError::UnknownConnection`] for unestablished connections.
    pub fn assign_seq(&mut self, conn: ConnId) -> Result<u64, NetlinkError> {
        let c = self
            .connections
            .get_mut(&conn)
            .ok_or(NetlinkError::UnknownConnection)?;
        c.next_seq += 1;
        Ok(c.next_seq)
    }

    /// Records that `seq` was delivered on `conn`. Returns `false` if it
    /// was already delivered (a duplicate to be suppressed).
    ///
    /// The record is bounded: sequence numbers more than
    /// `DELIVERY_RECORD` behind the highest freshly delivered seq fall
    /// under the watermark floor and are suppressed implicitly, so a late
    /// duplicate of a long-forgotten seq is still suppressed — the record
    /// can only ever forget *towards* "already delivered", never towards
    /// re-admitting a duplicate. The floor is a pure function of
    /// `(seq, watermark)`, never of the set contents, so restoring a
    /// snapshot (which rebuilds the set empty) cannot change how it evolves.
    ///
    /// # Errors
    ///
    /// [`NetlinkError::UnknownConnection`] for unestablished connections.
    pub fn mark_delivered(&mut self, conn: ConnId, seq: u64) -> Result<bool, NetlinkError> {
        let c = self
            .connections
            .get_mut(&conn)
            .ok_or(NetlinkError::UnknownConnection)?;
        if seq <= c.watermark {
            return Ok(false);
        }
        let fresh = c.delivered.insert(seq);
        if fresh {
            let floor = seq.saturating_sub(DELIVERY_RECORD as u64);
            if floor > c.watermark {
                c.watermark = floor;
                c.delivered = c.delivered.split_off(&(c.watermark + 1));
            }
        }
        Ok(fresh)
    }

    /// Moves the display channel to `to` if `conn` is the display
    /// connection and the state actually changes, returning the transition.
    pub(crate) fn transition_display(
        &mut self,
        conn: ConnId,
        to: ChannelState,
    ) -> Option<(ChannelState, ChannelState)> {
        if self.display_conn != Some(conn) {
            return None;
        }
        let from = self.display_state;
        if from == to {
            return None;
        }
        self.display_state = to;
        self.state_generation += 1;
        Some((from, to))
    }

    /// Tears down a connection (peer exit).
    pub fn disconnect(&mut self, conn: ConnId) {
        self.connections.remove(&conn);
        if self.display_conn == Some(conn) {
            self.display_conn = None;
            if self.display_state != ChannelState::Down {
                self.display_state = ChannelState::Down;
                self.state_generation += 1;
            }
        }
    }

    /// Eagerly invalidates every connection whose peer is `pid` (called
    /// from the process-exit path, so a stale — or recycled — pid can never
    /// use an authenticated channel). Returns `(dropped, display_lost)`:
    /// how many connections were removed and whether the display channel
    /// went down.
    pub fn invalidate_peer(&mut self, pid: Pid) -> (usize, bool) {
        let before = self.connections.len();
        self.connections.retain(|_, c| c.pid != pid);
        let dropped = before - self.connections.len();
        let display_lost = self
            .display_conn
            .is_some_and(|conn| !self.connections.contains_key(&conn));
        if display_lost {
            self.display_conn = None;
            if self.display_state != ChannelState::Down {
                self.display_state = ChannelState::Down;
                self.state_generation += 1;
            }
        }
        (dropped, display_lost)
    }

    /// Drops every connection whose peer is no longer running (periodic
    /// scan; retained as a belt-and-braces sweep on top of the eager
    /// exit-path invalidation).
    pub fn reap_dead_peers(&mut self, tasks: &ProcessTable) {
        self.connections.retain(|_, c| tasks.is_running(c.pid));
        if let Some(conn) = self.display_conn {
            if !self.connections.contains_key(&conn) {
                self.display_conn = None;
                if self.display_state != ChannelState::Down {
                    self.display_state = ChannelState::Down;
                    self.state_generation += 1;
                }
            }
        }
    }

    /// Number of live connections.
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }
}

mod pack {
    //! Snapshot codec for the channel registry.
    //!
    //! Per-connection `delivered` sets are derived dup-suppression records:
    //! they are *not* serialized and restore rebuilds them empty. The
    //! watermark floor is serialized, and because its evolution never reads
    //! the set contents, a restored registry suppresses and admits exactly
    //! the same sequence numbers as the uninterrupted one.

    use std::collections::BTreeSet;

    use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};
    use overhaul_sim::{impl_pack, impl_pack_newtype};

    use super::{ConnId, Connection, Netlink, NetlinkMessage};

    impl_pack_newtype!(ConnId, u32);

    impl Pack for NetlinkMessage {
        fn pack(&self, enc: &mut Enc) {
            match self {
                NetlinkMessage::InteractionNotification { pid, at } => {
                    enc.put_u8(0);
                    pid.pack(enc);
                    at.pack(enc);
                }
                NetlinkMessage::PermissionQuery { pid, op, at } => {
                    enc.put_u8(1);
                    pid.pack(enc);
                    op.pack(enc);
                    at.pack(enc);
                }
                NetlinkMessage::DeviceMapUpdate { old_path, new_path } => {
                    enc.put_u8(2);
                    old_path.pack(enc);
                    new_path.pack(enc);
                }
            }
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => NetlinkMessage::InteractionNotification {
                    pid: Pack::unpack(dec)?,
                    at: Pack::unpack(dec)?,
                },
                1 => NetlinkMessage::PermissionQuery {
                    pid: Pack::unpack(dec)?,
                    op: Pack::unpack(dec)?,
                    at: Pack::unpack(dec)?,
                },
                2 => NetlinkMessage::DeviceMapUpdate {
                    old_path: Pack::unpack(dec)?,
                    new_path: Pack::unpack(dec)?,
                },
                _ => return Err(SnapshotError::BadValue("netlink message")),
            })
        }
    }

    impl Pack for Connection {
        fn pack(&self, enc: &mut Enc) {
            self.pid.pack(enc);
            self.is_display.pack(enc);
            self.next_seq.pack(enc);
            self.watermark.pack(enc);
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(Connection {
                pid: Pack::unpack(dec)?,
                is_display: Pack::unpack(dec)?,
                next_seq: Pack::unpack(dec)?,
                // Derived dup-suppression record: rebuilt empty on restore.
                delivered: BTreeSet::new(),
                watermark: Pack::unpack(dec)?,
            })
        }
    }

    impl_pack!(Netlink {
        connections,
        next,
        display_conn,
        display_state,
        state_generation,
        had_display,
        display_reconnects
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_sim::Uid;

    const XORG: &str = "/usr/lib/xorg/Xorg";

    fn setup() -> (Netlink, ProcessTable, Vfs) {
        let netlink = Netlink::default();
        let tasks = ProcessTable::new();
        let mut vfs = Vfs::new();
        vfs.create_file(XORG, Uid::ROOT, 0o755).unwrap();
        (netlink, tasks, vfs)
    }

    #[test]
    fn trusted_root_owned_binary_connects() {
        let (mut netlink, mut tasks, vfs) = setup();
        let x = tasks.spawn(Pid::INIT, XORG).unwrap();
        let conn = netlink.connect(&tasks, &vfs, x, &[XORG.into()]).unwrap();
        assert_eq!(netlink.peer(conn).unwrap(), x);
        assert_eq!(netlink.connection_count(), 1);
        assert!(netlink.is_display(conn));
        assert_eq!(netlink.state(), ChannelState::Up);
    }

    #[test]
    fn untrusted_exe_rejected() {
        let (mut netlink, mut tasks, vfs) = setup();
        let mallory = tasks.spawn(Pid::INIT, "/home/mallory/fake-xorg").unwrap();
        assert_eq!(
            netlink.connect(&tasks, &vfs, mallory, &[XORG.into()]),
            Err(NetlinkError::UntrustedPeer)
        );
    }

    #[test]
    fn trusted_path_but_user_owned_binary_rejected() {
        // A user replacing the binary file (were it user-writable) must not
        // be able to authenticate: the on-disk binary must be root-owned.
        let mut netlink = Netlink::default();
        let mut tasks = ProcessTable::new();
        let mut vfs = Vfs::new();
        vfs.create_file("/tmp/Xorg", Uid::from_raw(1000), 0o755)
            .unwrap();
        let p = tasks.spawn(Pid::INIT, "/tmp/Xorg").unwrap();
        assert_eq!(
            netlink.connect(&tasks, &vfs, p, &["/tmp/Xorg".into()]),
            Err(NetlinkError::UntrustedPeer)
        );
    }

    #[test]
    fn missing_binary_rejected() {
        let (mut netlink, mut tasks, _) = setup();
        let vfs = Vfs::new(); // no Xorg file on disk
        let p = tasks.spawn(Pid::INIT, XORG).unwrap();
        assert_eq!(
            netlink.connect(&tasks, &vfs, p, &[XORG.into()]),
            Err(NetlinkError::UntrustedPeer)
        );
    }

    #[test]
    fn dead_process_cannot_connect() {
        let (mut netlink, mut tasks, vfs) = setup();
        let x = tasks.spawn(Pid::INIT, XORG).unwrap();
        tasks.exit(x, 0).unwrap();
        assert_eq!(
            netlink.connect(&tasks, &vfs, x, &[XORG.into()]),
            Err(NetlinkError::NoSuchProcess)
        );
    }

    #[test]
    fn unknown_connection_rejected() {
        let (netlink, _, _) = setup();
        assert_eq!(
            netlink.peer(ConnId(99)),
            Err(NetlinkError::UnknownConnection)
        );
    }

    #[test]
    fn reap_dead_peers_drops_connections() {
        let (mut netlink, mut tasks, vfs) = setup();
        let x = tasks.spawn(Pid::INIT, XORG).unwrap();
        let conn = netlink.connect(&tasks, &vfs, x, &[XORG.into()]).unwrap();
        tasks.exit(x, 0).unwrap();
        netlink.reap_dead_peers(&tasks);
        assert_eq!(netlink.peer(conn), Err(NetlinkError::UnknownConnection));
        assert_eq!(netlink.state(), ChannelState::Down);
    }

    #[test]
    fn disconnect_is_idempotent() {
        let (mut netlink, mut tasks, vfs) = setup();
        let x = tasks.spawn(Pid::INIT, XORG).unwrap();
        let conn = netlink.connect(&tasks, &vfs, x, &[XORG.into()]).unwrap();
        netlink.disconnect(conn);
        netlink.disconnect(conn);
        assert_eq!(netlink.connection_count(), 0);
        assert_eq!(netlink.state(), ChannelState::Down);
    }

    #[test]
    fn invalidate_peer_is_eager_and_downs_the_channel() {
        let (mut netlink, mut tasks, vfs) = setup();
        let x = tasks.spawn(Pid::INIT, XORG).unwrap();
        let conn = netlink.connect(&tasks, &vfs, x, &[XORG.into()]).unwrap();
        let (dropped, display_lost) = netlink.invalidate_peer(x);
        assert_eq!(dropped, 1);
        assert!(display_lost);
        assert_eq!(netlink.peer(conn), Err(NetlinkError::UnknownConnection));
        assert_eq!(netlink.state(), ChannelState::Down);
        // Idempotent.
        assert_eq!(netlink.invalidate_peer(x), (0, false));
    }

    #[test]
    fn sequence_numbers_deduplicate_deliveries() {
        let (mut netlink, mut tasks, vfs) = setup();
        let x = tasks.spawn(Pid::INIT, XORG).unwrap();
        let conn = netlink.connect(&tasks, &vfs, x, &[XORG.into()]).unwrap();
        let s1 = netlink.assign_seq(conn).unwrap();
        let s2 = netlink.assign_seq(conn).unwrap();
        assert_ne!(s1, s2);
        assert!(netlink.mark_delivered(conn, s1).unwrap());
        assert!(!netlink.mark_delivered(conn, s1).unwrap(), "duplicate");
        assert!(netlink.mark_delivered(conn, s2).unwrap());
    }

    #[test]
    fn delivery_record_is_bounded() {
        let (mut netlink, mut tasks, vfs) = setup();
        let x = tasks.spawn(Pid::INIT, XORG).unwrap();
        let conn = netlink.connect(&tasks, &vfs, x, &[XORG.into()]).unwrap();
        for _ in 0..(DELIVERY_RECORD as u64 + 32) {
            let seq = netlink.assign_seq(conn).unwrap();
            assert!(netlink.mark_delivered(conn, seq).unwrap());
        }
    }

    #[test]
    fn evicted_seq_cannot_readmit_late_duplicate() {
        // Regression: the bounded delivery record used to evict the lowest
        // stored seq outright, so a late duplicate of an evicted seq was
        // readmitted as "fresh" and delivered twice. The watermark keeps
        // every evicted seq implicitly remembered.
        let (mut netlink, mut tasks, vfs) = setup();
        let x = tasks.spawn(Pid::INIT, XORG).unwrap();
        let conn = netlink.connect(&tasks, &vfs, x, &[XORG.into()]).unwrap();
        let first = netlink.assign_seq(conn).unwrap();
        assert!(netlink.mark_delivered(conn, first).unwrap());
        // Push far past the record bound.
        for _ in 0..(DELIVERY_RECORD as u64 * 3) {
            let seq = netlink.assign_seq(conn).unwrap();
            assert!(netlink.mark_delivered(conn, seq).unwrap());
        }
        assert!(
            !netlink.mark_delivered(conn, first).unwrap(),
            "a late duplicate of a long-evicted seq must stay suppressed"
        );
    }

    #[test]
    fn out_of_order_delivery_record_stays_bounded_and_exact() {
        let (mut netlink, mut tasks, vfs) = setup();
        let x = tasks.spawn(Pid::INIT, XORG).unwrap();
        let conn = netlink.connect(&tasks, &vfs, x, &[XORG.into()]).unwrap();
        // Deliver only even seqs first (holes keep the watermark low), far
        // past the bound, then replay: every delivered seq must still read
        // as a duplicate, and the holes below the (raised) floor are
        // conservatively suppressed too — the record forgets only towards
        // "already delivered", never towards readmission.
        let total = DELIVERY_RECORD as u64 * 4;
        for _ in 0..total {
            netlink.assign_seq(conn).unwrap();
        }
        for seq in (2..=total).step_by(2) {
            assert!(netlink.mark_delivered(conn, seq).unwrap());
        }
        for seq in (2..=total).step_by(2) {
            assert!(
                !netlink.mark_delivered(conn, seq).unwrap(),
                "replay of delivered seq {seq} must be suppressed"
            );
        }
    }

    #[test]
    fn display_reconnect_invalidates_the_old_conn() {
        let (mut netlink, mut tasks, vfs) = setup();
        let x1 = tasks.spawn(Pid::INIT, XORG).unwrap();
        let old = netlink.connect(&tasks, &vfs, x1, &[XORG.into()]).unwrap();
        tasks.exit(x1, 139).unwrap();
        netlink.invalidate_peer(x1);
        assert_eq!(netlink.state(), ChannelState::Down);

        let x2 = tasks.spawn(Pid::INIT, XORG).unwrap();
        let new = netlink.connect(&tasks, &vfs, x2, &[XORG.into()]).unwrap();
        assert_ne!(old, new);
        assert_eq!(netlink.peer(old), Err(NetlinkError::UnknownConnection));
        assert!(netlink.is_display(new));
        assert_eq!(netlink.state(), ChannelState::Up);
        assert_eq!(netlink.display_reconnects(), 1);
    }

    #[test]
    fn transition_only_applies_to_the_display_conn() {
        let (mut netlink, mut tasks, vfs) = setup();
        let x = tasks.spawn(Pid::INIT, XORG).unwrap();
        let conn = netlink.connect(&tasks, &vfs, x, &[XORG.into()]).unwrap();
        assert_eq!(
            netlink.transition_display(conn, ChannelState::Degraded),
            Some((ChannelState::Up, ChannelState::Degraded))
        );
        // Same state: no transition reported.
        assert_eq!(
            netlink.transition_display(conn, ChannelState::Degraded),
            None
        );
        // A non-display conn id does not move the machine.
        assert_eq!(
            netlink.transition_display(ConnId(999), ChannelState::Down),
            None
        );
        assert_eq!(netlink.state(), ChannelState::Degraded);
    }

    #[test]
    fn state_generation_counts_every_transition_exactly_once() {
        let (mut netlink, mut tasks, vfs) = setup();
        let g0 = netlink.state_generation();
        let x = tasks.spawn(Pid::INIT, XORG).unwrap();
        let conn = netlink.connect(&tasks, &vfs, x, &[XORG.into()]).unwrap();
        assert_eq!(netlink.state_generation(), g0 + 1, "Down -> Up");
        netlink.transition_display(conn, ChannelState::Degraded);
        assert_eq!(netlink.state_generation(), g0 + 2);
        // A no-op transition does not bump.
        netlink.transition_display(conn, ChannelState::Degraded);
        assert_eq!(netlink.state_generation(), g0 + 2);
        netlink.invalidate_peer(x);
        assert_eq!(netlink.state_generation(), g0 + 3, "Degraded -> Down");
        // Already down: disconnect of a gone conn is a no-op.
        netlink.disconnect(conn);
        assert_eq!(netlink.state_generation(), g0 + 3);
    }
}
