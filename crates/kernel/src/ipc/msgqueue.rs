//! POSIX and SysV message queues.
//!
//! Both families share one queue object: SysV queues are addressed by an
//! integer key (`msgget`/`msgsnd`/`msgrcv`), POSIX queues by a name
//! (`mq_open`/`mq_send`/`mq_receive`). Each queue carries an embedded
//! interaction-timestamp slot for the **P2** propagation protocol.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use overhaul_sim::Timestamp;

use crate::error::{Errno, SysResult};

/// Identifier of a message queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgqId(u64);

impl MsgqId {
    /// Creates a `MsgqId` from its raw value.
    pub const fn from_raw(raw: u64) -> Self {
        MsgqId(raw)
    }

    /// The raw value.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for MsgqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msgq:{}", self.0)
    }
}

/// Which API family created a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueFamily {
    /// `msgget`-style, addressed by integer key.
    SysV,
    /// `mq_open`-style, addressed by name.
    Posix,
}

/// One queued message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// SysV message type (POSIX sends use 0).
    pub mtype: i64,
    /// Payload.
    pub data: Vec<u8>,
}

/// One message queue.
#[derive(Debug, Clone)]
pub struct MsgQueue {
    family: QueueFamily,
    messages: VecDeque<Message>,
    embedded_ts: Option<Timestamp>,
}

impl MsgQueue {
    fn new(family: QueueFamily) -> Self {
        MsgQueue {
            family,
            messages: VecDeque::new(),
            embedded_ts: None,
        }
    }

    /// API family.
    pub fn family(&self) -> QueueFamily {
        self.family
    }

    /// Messages currently queued.
    pub fn depth(&self) -> usize {
        self.messages.len()
    }

    /// The embedded interaction timestamp slot.
    pub fn embedded_ts(&self) -> Option<Timestamp> {
        self.embedded_ts
    }
}

/// Table of all message queues, with both namespaces.
#[derive(Debug, Clone, Default)]
pub struct MsgQueueTable {
    queues: BTreeMap<MsgqId, MsgQueue>,
    sysv_keys: BTreeMap<i32, MsgqId>,
    posix_names: BTreeMap<String, MsgqId>,
    next: u64,
}

impl MsgQueueTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        MsgQueueTable::default()
    }

    fn alloc(&mut self, family: QueueFamily) -> MsgqId {
        self.next += 1;
        let id = MsgqId(self.next);
        self.queues.insert(id, MsgQueue::new(family));
        id
    }

    /// `msgget(2)`: finds or creates the SysV queue for `key`.
    pub fn sysv_get(&mut self, key: i32) -> MsgqId {
        if let Some(id) = self.sysv_keys.get(&key) {
            return *id;
        }
        let id = self.alloc(QueueFamily::SysV);
        self.sysv_keys.insert(key, id);
        id
    }

    /// `mq_open(3)`: finds or creates the POSIX queue named `name`.
    pub fn posix_open(&mut self, name: &str) -> MsgqId {
        if let Some(id) = self.posix_names.get(name) {
            return *id;
        }
        let id = self.alloc(QueueFamily::Posix);
        self.posix_names.insert(name.to_string(), id);
        id
    }

    /// Looks up a queue.
    pub fn get(&self, id: MsgqId) -> SysResult<&MsgQueue> {
        self.queues.get(&id).ok_or(Errno::Einval)
    }

    /// Enqueues a message.
    pub fn send(&mut self, id: MsgqId, msg: Message) -> SysResult<()> {
        let queue = self.queues.get_mut(&id).ok_or(Errno::Einval)?;
        queue.messages.push_back(msg);
        Ok(())
    }

    /// Dequeues the next message; with `mtype != 0` the first message of
    /// that type (SysV semantics).
    ///
    /// # Errors
    ///
    /// [`Errno::Enomsg`] if no matching message is queued.
    pub fn receive(&mut self, id: MsgqId, mtype: i64) -> SysResult<Message> {
        let queue = self.queues.get_mut(&id).ok_or(Errno::Einval)?;
        if mtype == 0 {
            queue.messages.pop_front().ok_or(Errno::Enomsg)
        } else {
            let pos = queue
                .messages
                .iter()
                .position(|m| m.mtype == mtype)
                .ok_or(Errno::Enomsg)?;
            Ok(queue.messages.remove(pos).expect("position valid"))
        }
    }

    /// Embedded timestamp slot of a queue.
    pub fn embedded_ts_mut(&mut self, id: MsgqId) -> SysResult<&mut Option<Timestamp>> {
        Ok(&mut self.queues.get_mut(&id).ok_or(Errno::Einval)?.embedded_ts)
    }

    /// Removes a queue (`msgctl(IPC_RMID)` / `mq_unlink`).
    pub fn remove(&mut self, id: MsgqId) {
        self.queues.remove(&id);
        self.sysv_keys.retain(|_, v| *v != id);
        self.posix_names.retain(|_, v| *v != id);
    }

    /// Number of live queues.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }
}

mod pack {
    //! Snapshot codec for message queues and both addressing namespaces.

    use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};
    use overhaul_sim::{impl_pack, impl_pack_newtype};

    use super::{Message, MsgQueue, MsgQueueTable, MsgqId, QueueFamily};

    impl_pack_newtype!(MsgqId, u64);

    impl Pack for QueueFamily {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u8(match self {
                QueueFamily::SysV => 0,
                QueueFamily::Posix => 1,
            });
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => QueueFamily::SysV,
                1 => QueueFamily::Posix,
                _ => return Err(SnapshotError::BadValue("queue family")),
            })
        }
    }

    impl_pack!(Message { mtype, data });
    impl_pack!(MsgQueue {
        family,
        messages,
        embedded_ts
    });
    impl_pack!(MsgQueueTable {
        queues,
        sysv_keys,
        posix_names,
        next
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysv_key_maps_to_same_queue() {
        let mut table = MsgQueueTable::new();
        let a = table.sysv_get(0x1234);
        let b = table.sysv_get(0x1234);
        assert_eq!(a, b);
        assert_eq!(table.get(a).unwrap().family(), QueueFamily::SysV);
    }

    #[test]
    fn posix_name_maps_to_same_queue() {
        let mut table = MsgQueueTable::new();
        let a = table.posix_open("/work");
        let b = table.posix_open("/work");
        assert_eq!(a, b);
        assert_ne!(a, table.posix_open("/other"));
    }

    #[test]
    fn fifo_order_for_untyped_receive() {
        let mut table = MsgQueueTable::new();
        let q = table.posix_open("/q");
        table
            .send(
                q,
                Message {
                    mtype: 0,
                    data: vec![1],
                },
            )
            .unwrap();
        table
            .send(
                q,
                Message {
                    mtype: 0,
                    data: vec![2],
                },
            )
            .unwrap();
        assert_eq!(table.receive(q, 0).unwrap().data, vec![1]);
        assert_eq!(table.receive(q, 0).unwrap().data, vec![2]);
    }

    #[test]
    fn typed_receive_selects_matching_message() {
        let mut table = MsgQueueTable::new();
        let q = table.sysv_get(1);
        table
            .send(
                q,
                Message {
                    mtype: 7,
                    data: vec![7],
                },
            )
            .unwrap();
        table
            .send(
                q,
                Message {
                    mtype: 9,
                    data: vec![9],
                },
            )
            .unwrap();
        assert_eq!(table.receive(q, 9).unwrap().data, vec![9]);
        assert_eq!(table.receive(q, 9).err(), Some(Errno::Enomsg));
        assert_eq!(table.receive(q, 0).unwrap().data, vec![7]);
    }

    #[test]
    fn empty_queue_is_enomsg() {
        let mut table = MsgQueueTable::new();
        let q = table.sysv_get(2);
        assert_eq!(table.receive(q, 0).err(), Some(Errno::Enomsg));
    }

    #[test]
    fn remove_clears_all_namespaces() {
        let mut table = MsgQueueTable::new();
        let q = table.sysv_get(3);
        table.remove(q);
        assert!(table.is_empty());
        let q2 = table.sysv_get(3);
        assert_ne!(q, q2, "key must map to a fresh queue after removal");
    }

    #[test]
    fn embedded_timestamp_slot() {
        let mut table = MsgQueueTable::new();
        let q = table.posix_open("/ts");
        *table.embedded_ts_mut(q).unwrap() = Some(Timestamp::from_millis(99));
        assert_eq!(
            table.get(q).unwrap().embedded_ts(),
            Some(Timestamp::from_millis(99))
        );
    }
}
