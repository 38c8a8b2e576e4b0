//! Anonymous pipes (and the byte channel backing FIFOs).
//!
//! A pipe is a unidirectional byte stream with reader/writer reference
//! counts (so `EPIPE`/EOF semantics work across `fork` and `close`) and an
//! embedded interaction-timestamp slot for the **P2** propagation protocol.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use overhaul_sim::Timestamp;

use crate::error::{Errno, SysResult};

/// Identifier of a pipe object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PipeId(u64);

impl PipeId {
    /// Creates a `PipeId` from its raw value.
    pub const fn from_raw(raw: u64) -> Self {
        PipeId(raw)
    }

    /// The raw value.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PipeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipe:{}", self.0)
    }
}

/// One pipe object.
#[derive(Debug, Clone)]
pub struct Pipe {
    buffer: VecDeque<u8>,
    readers: u32,
    writers: u32,
    embedded_ts: Option<Timestamp>,
}

impl Pipe {
    fn new() -> Self {
        Pipe {
            buffer: VecDeque::new(),
            readers: 1,
            writers: 1,
            embedded_ts: None,
        }
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Live reader descriptors.
    pub fn readers(&self) -> u32 {
        self.readers
    }

    /// Live writer descriptors.
    pub fn writers(&self) -> u32 {
        self.writers
    }

    /// The embedded interaction timestamp slot (propagation protocol).
    pub fn embedded_ts(&self) -> Option<Timestamp> {
        self.embedded_ts
    }

    /// Mutable access to the embedded timestamp slot.
    pub fn embedded_ts_mut(&mut self) -> &mut Option<Timestamp> {
        &mut self.embedded_ts
    }
}

/// ```
/// use overhaul_kernel::ipc::pipe::PipeTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pipes = PipeTable::new();
/// let pipe = pipes.create();
/// pipes.write(pipe, b"hello")?;
/// assert_eq!(pipes.read(pipe, 5)?, b"hello");
/// # Ok(())
/// # }
/// ```
/// Table of all live pipes.
#[derive(Debug, Clone, Default)]
pub struct PipeTable {
    pipes: BTreeMap<PipeId, Pipe>,
    next: u64,
}

impl PipeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PipeTable::default()
    }

    /// Allocates a new pipe with one reader and one writer reference.
    pub fn create(&mut self) -> PipeId {
        self.next += 1;
        let id = PipeId(self.next);
        self.pipes.insert(id, Pipe::new());
        id
    }

    /// Looks up a pipe.
    pub fn get(&self, id: PipeId) -> SysResult<&Pipe> {
        self.pipes.get(&id).ok_or(Errno::Ebadf)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: PipeId) -> SysResult<&mut Pipe> {
        self.pipes.get_mut(&id).ok_or(Errno::Ebadf)
    }

    /// Writes bytes into the pipe.
    ///
    /// # Errors
    ///
    /// [`Errno::Epipe`] if no readers remain.
    pub fn write(&mut self, id: PipeId, bytes: &[u8]) -> SysResult<usize> {
        let pipe = self.get_mut(id)?;
        if pipe.readers == 0 {
            return Err(Errno::Epipe);
        }
        pipe.buffer.extend(bytes.iter().copied());
        Ok(bytes.len())
    }

    /// Reads up to `max` bytes.
    ///
    /// Returns an empty vector at EOF (no data and no writers).
    ///
    /// # Errors
    ///
    /// [`Errno::Eagain`] if the pipe is empty but writers remain.
    pub fn read(&mut self, id: PipeId, max: usize) -> SysResult<Vec<u8>> {
        let pipe = self.get_mut(id)?;
        if pipe.buffer.is_empty() {
            return if pipe.writers == 0 {
                Ok(Vec::new())
            } else {
                Err(Errno::Eagain)
            };
        }
        let n = max.min(pipe.buffer.len());
        Ok(pipe.buffer.drain(..n).collect())
    }

    /// Adds a reader reference (fork / dup / FIFO open).
    pub fn add_reader(&mut self, id: PipeId) -> SysResult<()> {
        self.get_mut(id)?.readers += 1;
        Ok(())
    }

    /// Adds a writer reference.
    pub fn add_writer(&mut self, id: PipeId) -> SysResult<()> {
        self.get_mut(id)?.writers += 1;
        Ok(())
    }

    /// Drops a reader reference, freeing the pipe when unreferenced.
    pub fn release_reader(&mut self, id: PipeId) {
        if let Some(pipe) = self.pipes.get_mut(&id) {
            pipe.readers = pipe.readers.saturating_sub(1);
            if pipe.readers == 0 && pipe.writers == 0 {
                self.pipes.remove(&id);
            }
        }
    }

    /// Drops a writer reference, freeing the pipe when unreferenced.
    pub fn release_writer(&mut self, id: PipeId) {
        if let Some(pipe) = self.pipes.get_mut(&id) {
            pipe.writers = pipe.writers.saturating_sub(1);
            if pipe.readers == 0 && pipe.writers == 0 {
                self.pipes.remove(&id);
            }
        }
    }

    /// Number of live pipes.
    pub fn len(&self) -> usize {
        self.pipes.len()
    }

    /// Whether no pipes exist.
    pub fn is_empty(&self) -> bool {
        self.pipes.is_empty()
    }
}

mod pack {
    //! Snapshot codec for pipes, including buffered bytes, reference
    //! counts, and the embedded propagation-timestamp slot.

    use overhaul_sim::{impl_pack, impl_pack_newtype};

    use super::{Pipe, PipeId, PipeTable};

    impl_pack_newtype!(PipeId, u64);
    impl_pack!(Pipe {
        buffer,
        readers,
        writers,
        embedded_ts
    });
    impl_pack!(PipeTable { pipes, next });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let mut table = PipeTable::new();
        let id = table.create();
        table.write(id, b"hello").unwrap();
        assert_eq!(table.read(id, 5).unwrap(), b"hello");
    }

    #[test]
    fn partial_reads_preserve_order() {
        let mut table = PipeTable::new();
        let id = table.create();
        table.write(id, b"abcdef").unwrap();
        assert_eq!(table.read(id, 3).unwrap(), b"abc");
        assert_eq!(table.read(id, 10).unwrap(), b"def");
    }

    #[test]
    fn empty_pipe_with_writers_is_eagain() {
        let mut table = PipeTable::new();
        let id = table.create();
        assert_eq!(table.read(id, 1), Err(Errno::Eagain));
    }

    #[test]
    fn eof_when_writers_gone() {
        let mut table = PipeTable::new();
        let id = table.create();
        table.release_writer(id);
        assert_eq!(table.read(id, 1).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn write_without_readers_is_epipe() {
        let mut table = PipeTable::new();
        let id = table.create();
        table.release_reader(id);
        assert_eq!(table.write(id, b"x"), Err(Errno::Epipe));
    }

    #[test]
    fn pipe_freed_when_fully_released() {
        let mut table = PipeTable::new();
        let id = table.create();
        table.release_reader(id);
        table.release_writer(id);
        assert!(table.is_empty());
        assert_eq!(table.get(id).err(), Some(Errno::Ebadf));
    }

    #[test]
    fn fork_style_refcounts_keep_pipe_alive() {
        let mut table = PipeTable::new();
        let id = table.create();
        table.add_reader(id).unwrap();
        table.add_writer(id).unwrap();
        table.release_reader(id);
        table.release_writer(id);
        // One reader and one writer remain.
        table.write(id, b"y").unwrap();
        assert_eq!(table.read(id, 1).unwrap(), b"y");
    }

    #[test]
    fn embedded_timestamp_slot_round_trips() {
        let mut table = PipeTable::new();
        let id = table.create();
        assert_eq!(table.get(id).unwrap().embedded_ts(), None);
        *table.get_mut(id).unwrap().embedded_ts_mut() = Some(Timestamp::from_millis(7));
        assert_eq!(
            table.get(id).unwrap().embedded_ts(),
            Some(Timestamp::from_millis(7))
        );
    }
}
