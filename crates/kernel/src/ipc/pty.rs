//! Pseudo-terminal pairs (§IV-B, *CLI interactions*).
//!
//! A terminal emulator (e.g. `xterm`) holds the master side; the shell and
//! its jobs hold the slave side. When the user types a command, the
//! emulator — which received the authentic X input events — *writes* to the
//! master; the shell *reads* from the slave. The paper propagates
//! interaction timestamps through the pseudo-terminal device driver so that
//! command-line tools launched from a terminal can access protected devices:
//! "Whenever a process writes to a terminal endpoint, that process embeds
//! its timestamp into the kernel data structure representing the pseudo
//! terminal device."
//!
//! Per the paper's wording the *device* carries a single embedded timestamp
//! (unlike sockets, where each direction has its own): terminal traffic is
//! an interactive session, and either side writing refreshes the session's
//! interaction recency.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use overhaul_sim::Timestamp;

use crate::error::{Errno, SysResult};

/// Identifier of a pseudo-terminal pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PtyId(u64);

impl PtyId {
    /// Creates a `PtyId` from its raw value.
    pub const fn from_raw(raw: u64) -> Self {
        PtyId(raw)
    }

    /// The raw value.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PtyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pty:{}", self.0)
    }
}

/// Which side of the pair a descriptor holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PtySide {
    /// Held by the terminal emulator.
    Master,
    /// Held by the shell and its children.
    Slave,
}

/// One pseudo-terminal pair.
#[derive(Debug, Clone)]
pub struct PtyPair {
    master_to_slave: VecDeque<u8>,
    slave_to_master: VecDeque<u8>,
    embedded_ts: Option<Timestamp>,
    master_open: bool,
    slave_open: bool,
}

impl PtyPair {
    fn new() -> Self {
        PtyPair {
            master_to_slave: VecDeque::new(),
            slave_to_master: VecDeque::new(),
            embedded_ts: None,
            master_open: true,
            slave_open: true,
        }
    }

    /// The embedded interaction timestamp on the device.
    pub fn embedded_ts(&self) -> Option<Timestamp> {
        self.embedded_ts
    }

    /// Bytes waiting to be read from `side`.
    pub fn pending(&self, side: PtySide) -> usize {
        match side {
            PtySide::Master => self.slave_to_master.len(),
            PtySide::Slave => self.master_to_slave.len(),
        }
    }
}

/// Table of live pseudo-terminal pairs.
#[derive(Debug, Clone, Default)]
pub struct PtyTable {
    ptys: BTreeMap<PtyId, PtyPair>,
    next: u64,
}

impl PtyTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PtyTable::default()
    }

    /// `openpty(3)`: allocates a new master/slave pair.
    pub fn open_pair(&mut self) -> PtyId {
        self.next += 1;
        let id = PtyId(self.next);
        self.ptys.insert(id, PtyPair::new());
        id
    }

    /// Looks up a pair.
    pub fn get(&self, id: PtyId) -> SysResult<&PtyPair> {
        self.ptys.get(&id).ok_or(Errno::Ebadf)
    }

    /// Writes from `side` to the opposite endpoint's buffer.
    ///
    /// # Errors
    ///
    /// [`Errno::Epipe`] if the opposite side has hung up.
    pub fn write(&mut self, id: PtyId, side: PtySide, bytes: &[u8]) -> SysResult<usize> {
        let pair = self.ptys.get_mut(&id).ok_or(Errno::Ebadf)?;
        let (peer_open, buffer) = match side {
            PtySide::Master => (pair.slave_open, &mut pair.master_to_slave),
            PtySide::Slave => (pair.master_open, &mut pair.slave_to_master),
        };
        if !peer_open {
            return Err(Errno::Epipe);
        }
        buffer.extend(bytes.iter().copied());
        Ok(bytes.len())
    }

    /// Reads up to `max` bytes from `side`'s inbound buffer.
    ///
    /// Returns an empty vector on hangup-EOF.
    ///
    /// # Errors
    ///
    /// [`Errno::Eagain`] if nothing is buffered and the peer is open.
    pub fn read(&mut self, id: PtyId, side: PtySide, max: usize) -> SysResult<Vec<u8>> {
        let pair = self.ptys.get_mut(&id).ok_or(Errno::Ebadf)?;
        let (peer_open, buffer) = match side {
            PtySide::Master => (pair.slave_open, &mut pair.slave_to_master),
            PtySide::Slave => (pair.master_open, &mut pair.master_to_slave),
        };
        if buffer.is_empty() {
            return if peer_open {
                Err(Errno::Eagain)
            } else {
                Ok(Vec::new())
            };
        }
        let n = max.min(buffer.len());
        Ok(buffer.drain(..n).collect())
    }

    /// Embedded timestamp slot of the device.
    pub fn embedded_ts_mut(&mut self, id: PtyId) -> SysResult<&mut Option<Timestamp>> {
        Ok(&mut self.ptys.get_mut(&id).ok_or(Errno::Ebadf)?.embedded_ts)
    }

    /// Closes one side; the pair is freed once both sides hang up.
    pub fn close_side(&mut self, id: PtyId, side: PtySide) {
        if let Some(pair) = self.ptys.get_mut(&id) {
            match side {
                PtySide::Master => pair.master_open = false,
                PtySide::Slave => pair.slave_open = false,
            }
            if !pair.master_open && !pair.slave_open {
                self.ptys.remove(&id);
            }
        }
    }

    /// Number of live pairs.
    pub fn len(&self) -> usize {
        self.ptys.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ptys.is_empty()
    }
}

mod pack {
    //! Snapshot codec for pseudo-terminal pairs.

    use overhaul_sim::{impl_pack, impl_pack_newtype};

    use super::{PtyId, PtyPair, PtyTable};

    impl_pack_newtype!(PtyId, u64);
    impl_pack!(PtyPair {
        master_to_slave,
        slave_to_master,
        embedded_ts,
        master_open,
        slave_open
    });
    impl_pack!(PtyTable { ptys, next });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_write_reaches_slave() {
        let mut table = PtyTable::new();
        let id = table.open_pair();
        table.write(id, PtySide::Master, b"ls -l\n").unwrap();
        assert_eq!(table.read(id, PtySide::Slave, 64).unwrap(), b"ls -l\n");
    }

    #[test]
    fn slave_write_reaches_master() {
        let mut table = PtyTable::new();
        let id = table.open_pair();
        table.write(id, PtySide::Slave, b"output").unwrap();
        assert_eq!(table.read(id, PtySide::Master, 64).unwrap(), b"output");
    }

    #[test]
    fn empty_buffer_is_eagain_until_hangup() {
        let mut table = PtyTable::new();
        let id = table.open_pair();
        assert_eq!(table.read(id, PtySide::Slave, 1), Err(Errno::Eagain));
        table.close_side(id, PtySide::Master);
        assert_eq!(table.read(id, PtySide::Slave, 1).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn write_to_hung_up_peer_is_epipe() {
        let mut table = PtyTable::new();
        let id = table.open_pair();
        table.close_side(id, PtySide::Slave);
        assert_eq!(table.write(id, PtySide::Master, b"x"), Err(Errno::Epipe));
    }

    #[test]
    fn pair_freed_when_both_sides_close() {
        let mut table = PtyTable::new();
        let id = table.open_pair();
        table.close_side(id, PtySide::Master);
        table.close_side(id, PtySide::Slave);
        assert!(table.is_empty());
    }

    #[test]
    fn single_embedded_timestamp_per_device() {
        let mut table = PtyTable::new();
        let id = table.open_pair();
        *table.embedded_ts_mut(id).unwrap() = Some(Timestamp::from_millis(11));
        assert_eq!(
            table.get(id).unwrap().embedded_ts(),
            Some(Timestamp::from_millis(11))
        );
    }

    #[test]
    fn pending_counts_per_side() {
        let mut table = PtyTable::new();
        let id = table.open_pair();
        table.write(id, PtySide::Master, b"abc").unwrap();
        assert_eq!(table.get(id).unwrap().pending(PtySide::Slave), 3);
        assert_eq!(table.get(id).unwrap().pending(PtySide::Master), 0);
    }
}
