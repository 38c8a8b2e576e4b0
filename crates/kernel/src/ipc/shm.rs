//! POSIX and SysV shared-memory segments.
//!
//! Shared memory is the one IPC mechanism the kernel cannot interpose at a
//! send/receive call site: "once the kernel allocates and maps a shared
//! memory region ... writes and reads to these regions are regular memory
//! operations" (§IV-B). The segment object here only stores the bytes and
//! the embedded timestamp slot; the *interposition* — permission
//! revocation, page faults, the 500 ms wait list — lives in [`crate::mm`].

use std::collections::BTreeMap;
use std::fmt;

use overhaul_sim::Timestamp;

use crate::error::{Errno, SysResult};

/// Simulated page size in bytes (4 KiB).
pub const PAGE_SIZE: usize = 4096;

/// The largest segment `shmget` and `shm_open` create, in pages: 1 GiB,
/// 26 times the paper's largest Table I segment (10 000 pages). A larger
/// request is `EINVAL`, as past Linux's `SHMMAX`, so a segment's byte
/// count never overflows and its allocation stays bounded.
pub const SHM_MAX_PAGES: usize = 1 << 18;

/// Identifier of a shared-memory segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShmId(u64);

impl ShmId {
    /// Creates a `ShmId` from its raw value.
    pub const fn from_raw(raw: u64) -> Self {
        ShmId(raw)
    }

    /// The raw value.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ShmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shm:{}", self.0)
    }
}

/// Which API family created the segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmFamily {
    /// `shmget`-style, addressed by integer key.
    SysV,
    /// `shm_open`-style, addressed by name.
    Posix,
}

/// One shared-memory segment.
#[derive(Debug, Clone)]
pub struct ShmSegment {
    family: ShmFamily,
    pages: usize,
    data: Vec<u8>,
    embedded_ts: Option<Timestamp>,
    attach_count: u32,
}

impl ShmSegment {
    fn new(family: ShmFamily, pages: usize) -> Self {
        ShmSegment {
            family,
            pages,
            data: vec![0; pages * PAGE_SIZE],
            embedded_ts: None,
            attach_count: 0,
        }
    }

    /// API family.
    pub fn family(&self) -> ShmFamily {
        self.family
    }

    /// Size in pages.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the segment has zero length.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of live attachments.
    pub fn attach_count(&self) -> u32 {
        self.attach_count
    }

    /// The embedded interaction timestamp slot.
    pub fn embedded_ts(&self) -> Option<Timestamp> {
        self.embedded_ts
    }
}

/// Refuses a segment size of zero pages or above [`SHM_MAX_PAGES`].
fn check_size(pages: usize) -> SysResult<()> {
    if (1..=SHM_MAX_PAGES).contains(&pages) {
        Ok(())
    } else {
        Err(Errno::Einval)
    }
}

/// Table of all shared-memory segments.
#[derive(Debug, Clone, Default)]
pub struct ShmTable {
    segments: BTreeMap<ShmId, ShmSegment>,
    sysv_keys: BTreeMap<i32, ShmId>,
    posix_names: BTreeMap<String, ShmId>,
    next: u64,
}

impl ShmTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ShmTable::default()
    }

    fn alloc(&mut self, family: ShmFamily, pages: usize) -> ShmId {
        self.next += 1;
        let id = ShmId(self.next);
        self.segments.insert(id, ShmSegment::new(family, pages));
        id
    }

    /// `shmget(2)`: finds or creates the SysV segment for `key`.
    ///
    /// # Errors
    ///
    /// [`Errno::Einval`] if an existing segment for `key` is smaller than
    /// `pages`, or if `pages` is zero or above [`SHM_MAX_PAGES`].
    pub fn sysv_get(&mut self, key: i32, pages: usize) -> SysResult<ShmId> {
        check_size(pages)?;
        if let Some(id) = self.sysv_keys.get(&key) {
            let seg = self.segments.get(id).expect("key table consistent");
            if seg.pages < pages {
                return Err(Errno::Einval);
            }
            return Ok(*id);
        }
        let id = self.alloc(ShmFamily::SysV, pages);
        self.sysv_keys.insert(key, id);
        Ok(id)
    }

    /// `shm_open(3)` + `ftruncate`: finds or creates the POSIX segment.
    ///
    /// # Errors
    ///
    /// [`Errno::Einval`] if `pages` is zero or above [`SHM_MAX_PAGES`], or
    /// an existing segment is smaller.
    pub fn posix_open(&mut self, name: &str, pages: usize) -> SysResult<ShmId> {
        check_size(pages)?;
        if let Some(id) = self.posix_names.get(name) {
            let seg = self.segments.get(id).expect("name table consistent");
            if seg.pages < pages {
                return Err(Errno::Einval);
            }
            return Ok(*id);
        }
        let id = self.alloc(ShmFamily::Posix, pages);
        self.posix_names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Looks up a segment.
    pub fn get(&self, id: ShmId) -> SysResult<&ShmSegment> {
        self.segments.get(&id).ok_or(Errno::Einval)
    }

    /// Records an attachment.
    pub fn attach(&mut self, id: ShmId) -> SysResult<()> {
        self.segments
            .get_mut(&id)
            .ok_or(Errno::Einval)?
            .attach_count += 1;
        Ok(())
    }

    /// Records a detachment.
    pub fn detach(&mut self, id: ShmId) {
        if let Some(seg) = self.segments.get_mut(&id) {
            seg.attach_count = seg.attach_count.saturating_sub(1);
        }
    }

    /// Writes bytes at `offset`.
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] if the write falls outside the segment.
    pub fn write(&mut self, id: ShmId, offset: usize, bytes: &[u8]) -> SysResult<()> {
        let seg = self.segments.get_mut(&id).ok_or(Errno::Einval)?;
        let end = offset.checked_add(bytes.len()).ok_or(Errno::Efault)?;
        if end > seg.data.len() {
            return Err(Errno::Efault);
        }
        seg.data[offset..end].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] if the read falls outside the segment.
    pub fn read(&self, id: ShmId, offset: usize, len: usize) -> SysResult<Vec<u8>> {
        let seg = self.segments.get(&id).ok_or(Errno::Einval)?;
        let end = offset.checked_add(len).ok_or(Errno::Efault)?;
        if end > seg.data.len() {
            return Err(Errno::Efault);
        }
        Ok(seg.data[offset..end].to_vec())
    }

    /// Embedded timestamp slot of a segment.
    pub fn embedded_ts_mut(&mut self, id: ShmId) -> SysResult<&mut Option<Timestamp>> {
        Ok(&mut self.segments.get_mut(&id).ok_or(Errno::Einval)?.embedded_ts)
    }

    /// Removes a segment.
    pub fn remove(&mut self, id: ShmId) {
        self.segments.remove(&id);
        self.sysv_keys.retain(|_, v| *v != id);
        self.posix_names.retain(|_, v| *v != id);
    }

    /// Number of live segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

mod pack {
    //! Snapshot codec for shared-memory segments: contents, attachment
    //! counts, and both addressing namespaces.

    use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};
    use overhaul_sim::{impl_pack, impl_pack_newtype};

    use super::{ShmFamily, ShmId, ShmSegment, ShmTable};

    impl_pack_newtype!(ShmId, u64);

    impl Pack for ShmFamily {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u8(match self {
                ShmFamily::SysV => 0,
                ShmFamily::Posix => 1,
            });
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => ShmFamily::SysV,
                1 => ShmFamily::Posix,
                _ => return Err(SnapshotError::BadValue("shm family")),
            })
        }
    }

    impl_pack!(ShmSegment {
        family,
        pages,
        data,
        embedded_ts,
        attach_count
    });
    impl_pack!(ShmTable {
        segments,
        sysv_keys,
        posix_names,
        next
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysv_key_round_trips() {
        let mut table = ShmTable::new();
        let a = table.sysv_get(0x77, 4).unwrap();
        let b = table.sysv_get(0x77, 4).unwrap();
        assert_eq!(a, b);
        assert_eq!(table.get(a).unwrap().pages(), 4);
        assert_eq!(table.get(a).unwrap().len(), 4 * PAGE_SIZE);
    }

    #[test]
    fn zero_pages_rejected() {
        let mut table = ShmTable::new();
        assert_eq!(table.sysv_get(1, 0), Err(Errno::Einval));
        assert_eq!(table.posix_open("/x", 0), Err(Errno::Einval));
    }

    #[test]
    fn oversized_segments_are_einval_before_any_allocation() {
        // A byte count that overflows `usize`, then the first size past
        // the bound; the bound itself is not allocated here.
        let mut table = ShmTable::new();
        for pages in [usize::MAX / PAGE_SIZE + 1, SHM_MAX_PAGES + 1] {
            assert_eq!(table.sysv_get(7, pages), Err(Errno::Einval), "{pages}");
            assert_eq!(table.posix_open("/big", pages), Err(Errno::Einval));
        }
        assert!(table.is_empty());
        assert!(table.posix_open("/table1", 10_000).is_ok());
    }

    #[test]
    fn requesting_larger_existing_segment_fails() {
        let mut table = ShmTable::new();
        table.sysv_get(5, 2).unwrap();
        assert_eq!(table.sysv_get(5, 8), Err(Errno::Einval));
        // Smaller or equal is fine.
        assert!(table.sysv_get(5, 1).is_ok());
    }

    #[test]
    fn write_read_round_trip() {
        let mut table = ShmTable::new();
        let id = table.posix_open("/seg", 1).unwrap();
        table.write(id, 100, b"secret").unwrap();
        assert_eq!(table.read(id, 100, 6).unwrap(), b"secret");
    }

    #[test]
    fn out_of_bounds_access_is_efault() {
        let mut table = ShmTable::new();
        let id = table.posix_open("/seg", 1).unwrap();
        assert_eq!(table.write(id, PAGE_SIZE - 2, b"abc"), Err(Errno::Efault));
        assert_eq!(table.read(id, PAGE_SIZE, 1).err(), Some(Errno::Efault));
        assert_eq!(table.write(id, usize::MAX, b"a"), Err(Errno::Efault));
    }

    #[test]
    fn attach_detach_counting() {
        let mut table = ShmTable::new();
        let id = table.sysv_get(9, 1).unwrap();
        table.attach(id).unwrap();
        table.attach(id).unwrap();
        table.detach(id);
        assert_eq!(table.get(id).unwrap().attach_count(), 1);
    }

    #[test]
    fn remove_clears_namespaces() {
        let mut table = ShmTable::new();
        let id = table.posix_open("/gone", 1).unwrap();
        table.remove(id);
        assert!(table.is_empty());
        let id2 = table.posix_open("/gone", 1).unwrap();
        assert_ne!(id, id2);
    }

    #[test]
    fn embedded_timestamp_slot() {
        let mut table = ShmTable::new();
        let id = table.sysv_get(3, 1).unwrap();
        *table.embedded_ts_mut(id).unwrap() = Some(Timestamp::from_millis(4));
        assert_eq!(
            table.get(id).unwrap().embedded_ts(),
            Some(Timestamp::from_millis(4))
        );
    }
}
