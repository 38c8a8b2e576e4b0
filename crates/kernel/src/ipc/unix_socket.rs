//! UNIX domain socket pairs.
//!
//! Modeled as bidirectional datagram channels (`socketpair(2)` semantics):
//! two ends, each with its own inbound queue. Each direction carries its own
//! embedded interaction-timestamp slot for the **P2** propagation protocol —
//! traffic from A to B must not launder B's interactions back to A.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use overhaul_sim::Timestamp;

use crate::error::{Errno, SysResult};

/// Identifier of a socket pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(u64);

impl SocketId {
    /// Creates a `SocketId` from its raw value.
    pub const fn from_raw(raw: u64) -> Self {
        SocketId(raw)
    }

    /// The raw value.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sock:{}", self.0)
    }
}

/// Which end of a socket pair a descriptor holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SocketEnd {
    /// The first end returned by `socketpair`.
    A,
    /// The second end.
    B,
}

impl SocketEnd {
    /// The opposite end.
    pub fn peer(self) -> SocketEnd {
        match self {
            SocketEnd::A => SocketEnd::B,
            SocketEnd::B => SocketEnd::A,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Direction {
    queue: VecDeque<Vec<u8>>,
    embedded_ts: Option<Timestamp>,
}

/// One socket pair.
#[derive(Debug, Clone)]
pub struct SocketPair {
    a_to_b: Direction,
    b_to_a: Direction,
    a_refs: u32,
    b_refs: u32,
}

impl SocketPair {
    fn new() -> Self {
        SocketPair {
            a_to_b: Direction::default(),
            b_to_a: Direction::default(),
            a_refs: 1,
            b_refs: 1,
        }
    }

    fn outbound(&mut self, from: SocketEnd) -> &mut Direction {
        match from {
            SocketEnd::A => &mut self.a_to_b,
            SocketEnd::B => &mut self.b_to_a,
        }
    }

    fn inbound(&mut self, to: SocketEnd) -> &mut Direction {
        match to {
            SocketEnd::A => &mut self.b_to_a,
            SocketEnd::B => &mut self.a_to_b,
        }
    }

    fn refs(&self, end: SocketEnd) -> u32 {
        match end {
            SocketEnd::A => self.a_refs,
            SocketEnd::B => self.b_refs,
        }
    }

    /// Messages queued toward `end`.
    pub fn pending_for(&self, end: SocketEnd) -> usize {
        match end {
            SocketEnd::A => self.b_to_a.queue.len(),
            SocketEnd::B => self.a_to_b.queue.len(),
        }
    }

    /// The embedded timestamp on the direction *out of* `from`.
    pub fn embedded_ts_from(&self, from: SocketEnd) -> Option<Timestamp> {
        match from {
            SocketEnd::A => self.a_to_b.embedded_ts,
            SocketEnd::B => self.b_to_a.embedded_ts,
        }
    }
}

/// Table of live socket pairs.
#[derive(Debug, Clone, Default)]
pub struct SocketTable {
    sockets: BTreeMap<SocketId, SocketPair>,
    next: u64,
}

impl SocketTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SocketTable::default()
    }

    /// `socketpair(2)`: allocates a connected pair.
    pub fn create_pair(&mut self) -> SocketId {
        self.next += 1;
        let id = SocketId(self.next);
        self.sockets.insert(id, SocketPair::new());
        id
    }

    /// Looks up a pair.
    pub fn get(&self, id: SocketId) -> SysResult<&SocketPair> {
        self.sockets.get(&id).ok_or(Errno::Ebadf)
    }

    /// Sends a datagram from `from` to its peer. Returns a mutable handle to
    /// the direction's embedded timestamp slot alongside success, so the
    /// kernel can run the propagation protocol in the same step.
    ///
    /// # Errors
    ///
    /// [`Errno::Econnreset`] if the peer end has been fully closed.
    pub fn send(&mut self, id: SocketId, from: SocketEnd, data: Vec<u8>) -> SysResult<()> {
        let pair = self.sockets.get_mut(&id).ok_or(Errno::Ebadf)?;
        if pair.refs(from.peer()) == 0 {
            return Err(Errno::Econnreset);
        }
        pair.outbound(from).queue.push_back(data);
        Ok(())
    }

    /// Receives the next datagram queued for `at` end.
    ///
    /// # Errors
    ///
    /// [`Errno::Eagain`] if nothing is queued.
    pub fn recv(&mut self, id: SocketId, at: SocketEnd) -> SysResult<Vec<u8>> {
        let pair = self.sockets.get_mut(&id).ok_or(Errno::Ebadf)?;
        pair.inbound(at).queue.pop_front().ok_or(Errno::Eagain)
    }

    /// Embedded timestamp slot for the direction out of `from`.
    pub fn embedded_ts_mut(
        &mut self,
        id: SocketId,
        from: SocketEnd,
    ) -> SysResult<&mut Option<Timestamp>> {
        let pair = self.sockets.get_mut(&id).ok_or(Errno::Ebadf)?;
        Ok(&mut pair.outbound(from).embedded_ts)
    }

    /// Adds a reference to one end (fork/dup).
    pub fn add_ref(&mut self, id: SocketId, end: SocketEnd) -> SysResult<()> {
        let pair = self.sockets.get_mut(&id).ok_or(Errno::Ebadf)?;
        match end {
            SocketEnd::A => pair.a_refs += 1,
            SocketEnd::B => pair.b_refs += 1,
        }
        Ok(())
    }

    /// Drops a reference to one end, freeing the pair when both ends are
    /// fully closed.
    pub fn release(&mut self, id: SocketId, end: SocketEnd) {
        if let Some(pair) = self.sockets.get_mut(&id) {
            match end {
                SocketEnd::A => pair.a_refs = pair.a_refs.saturating_sub(1),
                SocketEnd::B => pair.b_refs = pair.b_refs.saturating_sub(1),
            }
            if pair.a_refs == 0 && pair.b_refs == 0 {
                self.sockets.remove(&id);
            }
        }
    }

    /// Number of live pairs.
    pub fn len(&self) -> usize {
        self.sockets.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.sockets.is_empty()
    }
}

mod pack {
    //! Snapshot codec for socket pairs, per-direction queues and
    //! timestamp slots included.

    use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};
    use overhaul_sim::{impl_pack, impl_pack_newtype};

    use super::{Direction, SocketEnd, SocketId, SocketPair, SocketTable};

    impl_pack_newtype!(SocketId, u64);

    impl Pack for SocketEnd {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u8(match self {
                SocketEnd::A => 0,
                SocketEnd::B => 1,
            });
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => SocketEnd::A,
                1 => SocketEnd::B,
                _ => return Err(SnapshotError::BadValue("socket end")),
            })
        }
    }

    impl_pack!(Direction { queue, embedded_ts });
    impl_pack!(SocketPair {
        a_to_b,
        b_to_a,
        a_refs,
        b_refs
    });
    impl_pack!(SocketTable { sockets, next });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_across_pair() {
        let mut table = SocketTable::new();
        let id = table.create_pair();
        table.send(id, SocketEnd::A, b"ping".to_vec()).unwrap();
        assert_eq!(table.recv(id, SocketEnd::B).unwrap(), b"ping");
        table.send(id, SocketEnd::B, b"pong".to_vec()).unwrap();
        assert_eq!(table.recv(id, SocketEnd::A).unwrap(), b"pong");
    }

    #[test]
    fn datagram_boundaries_preserved() {
        let mut table = SocketTable::new();
        let id = table.create_pair();
        table.send(id, SocketEnd::A, b"one".to_vec()).unwrap();
        table.send(id, SocketEnd::A, b"two".to_vec()).unwrap();
        assert_eq!(table.recv(id, SocketEnd::B).unwrap(), b"one");
        assert_eq!(table.recv(id, SocketEnd::B).unwrap(), b"two");
    }

    #[test]
    fn empty_queue_is_eagain() {
        let mut table = SocketTable::new();
        let id = table.create_pair();
        assert_eq!(table.recv(id, SocketEnd::A), Err(Errno::Eagain));
    }

    #[test]
    fn send_to_closed_peer_is_reset() {
        let mut table = SocketTable::new();
        let id = table.create_pair();
        table.release(id, SocketEnd::B);
        assert_eq!(
            table.send(id, SocketEnd::A, vec![1]),
            Err(Errno::Econnreset)
        );
    }

    #[test]
    fn pair_freed_when_both_ends_closed() {
        let mut table = SocketTable::new();
        let id = table.create_pair();
        table.release(id, SocketEnd::A);
        table.release(id, SocketEnd::B);
        assert!(table.is_empty());
    }

    #[test]
    fn directions_have_independent_timestamp_slots() {
        let mut table = SocketTable::new();
        let id = table.create_pair();
        *table.embedded_ts_mut(id, SocketEnd::A).unwrap() = Some(Timestamp::from_millis(10));
        assert_eq!(
            table.get(id).unwrap().embedded_ts_from(SocketEnd::A),
            Some(Timestamp::from_millis(10))
        );
        assert_eq!(
            table.get(id).unwrap().embedded_ts_from(SocketEnd::B),
            None,
            "A's interactions must not leak onto the B->A direction"
        );
    }

    #[test]
    fn peer_end_is_involutive() {
        assert_eq!(SocketEnd::A.peer(), SocketEnd::B);
        assert_eq!(SocketEnd::A.peer().peer(), SocketEnd::A);
    }

    #[test]
    fn pending_counts() {
        let mut table = SocketTable::new();
        let id = table.create_pair();
        table.send(id, SocketEnd::A, vec![0]).unwrap();
        table.send(id, SocketEnd::A, vec![1]).unwrap();
        assert_eq!(table.get(id).unwrap().pending_for(SocketEnd::B), 2);
        assert_eq!(table.get(id).unwrap().pending_for(SocketEnd::A), 0);
    }
}
