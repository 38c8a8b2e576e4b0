//! Virtual-memory subsystem: shared-mapping interposition via page faults.
//!
//! Shared-memory reads and writes "are regular memory operations that cannot
//! be intercepted above the hardware level" (§IV-B). The paper's solution,
//! reproduced here:
//!
//! 1. when a shared mapping is created, its read/write permissions are
//!    revoked ([`MemoryManager::map_shared`]);
//! 2. the next access takes a page fault ([`MemoryManager::begin_access`]
//!    returns [`AccessPath::Faulted`]), giving the kernel a hook to run the
//!    timestamp-propagation protocol;
//! 3. permissions are then restored and the mapping goes on a *wait list*;
//!    accesses inside the wait window proceed uninterposed (this is the
//!    performance/usability trade-off: the window must be "sufficiently
//!    shorter than the 2 second interaction expiration time");
//! 4. when the wait expires ([`MemoryManager::tick`]), permissions are
//!    revoked again. The paper configured the window to 500 ms.

use std::collections::BTreeMap;
use std::fmt;

use overhaul_sim::{Pid, SimDuration, Timestamp};

use crate::error::{Errno, SysResult};
use crate::ipc::shm::ShmId;

/// Identifier of a virtual memory area (a shared mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmaId(u64);

impl VmaId {
    /// Creates a `VmaId` from its raw value.
    pub const fn from_raw(raw: u64) -> Self {
        VmaId(raw)
    }

    /// The raw value.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for VmaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vma:{}", self.0)
    }
}

/// Read or write access to a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load from the mapping.
    Read,
    /// Store to the mapping.
    Write,
}

/// How an access proceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Permissions were revoked: the access faulted, the kernel runs the
    /// propagation protocol, permissions are restored, and the mapping is
    /// placed on the wait list.
    Faulted,
    /// Permissions were live (inside the wait window, or interposition is
    /// disabled): the access proceeds as a plain memory operation.
    Direct,
}

/// A shared mapping (the relevant slice of `vm_area_struct`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    id: VmaId,
    /// Owning process.
    pid: Pid,
    /// Backing shared segment.
    shm: ShmId,
    /// `true` while accesses will fault (the `VM_SHARED`-flagged area has
    /// its permissions revoked).
    perms_revoked: bool,
}

impl Vma {
    /// Owning process.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Backing segment.
    pub fn shm(&self) -> ShmId {
        self.shm
    }

    /// Whether the next access will fault.
    pub fn perms_revoked(&self) -> bool {
        self.perms_revoked
    }
}

#[derive(Debug, Clone, Copy)]
struct WaitEntry {
    vma: VmaId,
    expires: Timestamp,
}

/// Counters for the interposition machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmStats {
    /// Accesses that took the fault path (propagation ran).
    pub faults: u64,
    /// Accesses that proceeded directly (wait window open or disabled).
    pub direct: u64,
    /// Wait-list expirations that re-revoked permissions.
    pub rearms: u64,
}

/// ```
/// use overhaul_kernel::ipc::shm::ShmId;
/// use overhaul_kernel::mm::{AccessKind, AccessPath, MemoryManager};
/// use overhaul_sim::{Pid, SimDuration, Timestamp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mm = MemoryManager::new(true, SimDuration::from_millis(500));
/// let vma = mm.map_shared(Pid::from_raw(9), ShmId::from_raw(1));
/// // First access faults (the propagation hook)...
/// assert_eq!(mm.begin_access(vma, Pid::from_raw(9), AccessKind::Write, Timestamp::ZERO)?,
///            AccessPath::Faulted);
/// // ...later accesses inside the 500 ms window run uninterposed.
/// assert_eq!(mm.begin_access(vma, Pid::from_raw(9), AccessKind::Write, Timestamp::from_millis(10))?,
///            AccessPath::Direct);
/// # Ok(())
/// # }
/// ```
/// The memory manager.
#[derive(Debug, Clone)]
pub struct MemoryManager {
    vmas: BTreeMap<VmaId, Vma>,
    wait_list: Vec<WaitEntry>,
    interpose: bool,
    wait_duration: SimDuration,
    next: u64,
    stats: MmStats,
}

impl Default for MemoryManager {
    fn default() -> Self {
        Self::new(true, SimDuration::from_millis(500))
    }
}

impl MemoryManager {
    /// Creates a manager. `interpose` enables the Overhaul fault machinery;
    /// `wait_duration` is the paper's 500 ms re-arm window.
    pub fn new(interpose: bool, wait_duration: SimDuration) -> Self {
        MemoryManager {
            vmas: BTreeMap::new(),
            wait_list: Vec::new(),
            interpose,
            wait_duration,
            next: 0,
            stats: MmStats::default(),
        }
    }

    /// Whether interposition is active.
    pub fn interpose(&self) -> bool {
        self.interpose
    }

    /// The wait-list duration.
    pub fn wait_duration(&self) -> SimDuration {
        self.wait_duration
    }

    /// Counters.
    pub fn stats(&self) -> MmStats {
        self.stats
    }

    /// Maps `shm` into `pid`'s address space. Under interposition the
    /// mapping starts with permissions revoked, so the very first access
    /// faults and propagates.
    pub fn map_shared(&mut self, pid: Pid, shm: ShmId) -> VmaId {
        self.next += 1;
        let id = VmaId(self.next);
        self.vmas.insert(
            id,
            Vma {
                id,
                pid,
                shm,
                perms_revoked: self.interpose,
            },
        );
        id
    }

    /// Looks up a mapping.
    pub fn vma(&self, id: VmaId) -> SysResult<Vma> {
        self.vmas.get(&id).copied().ok_or(Errno::Efault)
    }

    /// Begins an access to `vma` at `now`, returning which path it takes.
    /// On [`AccessPath::Faulted`] the caller (the kernel) must run the
    /// propagation protocol for the backing segment; this method has
    /// already restored permissions and scheduled the re-arm.
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] for an unknown mapping, [`Errno::Eperm`] if the
    /// access comes from a process other than the mapper.
    pub fn begin_access(
        &mut self,
        id: VmaId,
        pid: Pid,
        _kind: AccessKind,
        now: Timestamp,
    ) -> SysResult<AccessPath> {
        if self.vmas.get(&id).ok_or(Errno::Efault)?.pid != pid {
            return Err(Errno::Eperm);
        }
        // Lazily expire this mapping's wait entry: the window is open
        // strictly for `now < expires` (mirroring the monitor's strict-δ
        // comparison), so an access at exactly the re-arm deadline — or
        // later, if no tick ran in between — must take the re-armed fault
        // path rather than sneak through uninterposed.
        if self.interpose {
            if let Some(pos) = self
                .wait_list
                .iter()
                .position(|e| e.vma == id && e.expires <= now)
            {
                self.wait_list.swap_remove(pos);
                self.vmas
                    .get_mut(&id)
                    .expect("looked up above")
                    .perms_revoked = true;
                self.stats.rearms += 1;
            }
        }
        let vma = self.vmas.get_mut(&id).ok_or(Errno::Efault)?;
        if self.interpose && vma.perms_revoked {
            vma.perms_revoked = false;
            self.wait_list.push(WaitEntry {
                vma: id,
                expires: now + self.wait_duration,
            });
            self.stats.faults += 1;
            Ok(AccessPath::Faulted)
        } else {
            self.stats.direct += 1;
            Ok(AccessPath::Direct)
        }
    }

    /// Processes the wait list at `now`: mappings whose window expired have
    /// their permissions revoked again. Returns how many were re-armed.
    pub fn tick(&mut self, now: Timestamp) -> usize {
        let mut rearmed = 0;
        let mut index = 0;
        while index < self.wait_list.len() {
            if self.wait_list[index].expires <= now {
                let entry = self.wait_list.swap_remove(index);
                if let Some(vma) = self.vmas.get_mut(&entry.vma) {
                    vma.perms_revoked = true;
                    rearmed += 1;
                    self.stats.rearms += 1;
                }
            } else {
                index += 1;
            }
        }
        rearmed
    }

    /// Unmaps a mapping (`shmdt` / `munmap`).
    pub fn unmap(&mut self, id: VmaId) -> SysResult<Vma> {
        let vma = self.vmas.remove(&id).ok_or(Errno::Efault)?;
        self.wait_list.retain(|e| e.vma != id);
        Ok(vma)
    }

    /// Unmaps every mapping owned by `pid` (process exit), returning them.
    pub fn unmap_all_for(&mut self, pid: Pid) -> Vec<Vma> {
        let ids: Vec<VmaId> = self
            .vmas
            .values()
            .filter(|v| v.pid == pid)
            .map(|v| v.id)
            .collect();
        ids.into_iter()
            .filter_map(|id| self.unmap(id).ok())
            .collect()
    }

    /// Number of live mappings.
    pub fn len(&self) -> usize {
        self.vmas.len()
    }

    /// Whether no mappings exist.
    pub fn is_empty(&self) -> bool {
        self.vmas.is_empty()
    }

    /// Mappings currently inside their wait window.
    pub fn wait_list_len(&self) -> usize {
        self.wait_list.len()
    }
}

mod pack {
    //! Snapshot codec for the memory manager, including the wait list:
    //! pending re-arm deadlines are real kernel state a replay must see.

    use overhaul_sim::{impl_pack, impl_pack_newtype};

    use super::{MemoryManager, MmStats, Vma, VmaId, WaitEntry};

    impl_pack_newtype!(VmaId, u64);
    impl_pack!(Vma {
        id,
        pid,
        shm,
        perms_revoked
    });
    impl_pack!(WaitEntry { vma, expires });
    impl_pack!(MmStats {
        faults,
        direct,
        rearms
    });
    impl_pack!(MemoryManager {
        vmas,
        wait_list,
        interpose,
        wait_duration,
        next,
        stats
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAIT: SimDuration = SimDuration::from_millis(500);

    fn mm() -> MemoryManager {
        MemoryManager::new(true, WAIT)
    }

    fn pid() -> Pid {
        Pid::from_raw(50)
    }

    #[test]
    fn first_access_faults_then_direct_within_window() {
        let mut mm = mm();
        let vma = mm.map_shared(pid(), ShmId::from_raw(1));
        let t0 = Timestamp::from_millis(0);
        assert_eq!(
            mm.begin_access(vma, pid(), AccessKind::Write, t0).unwrap(),
            AccessPath::Faulted
        );
        assert_eq!(
            mm.begin_access(
                vma,
                pid(),
                AccessKind::Write,
                t0 + SimDuration::from_millis(10)
            )
            .unwrap(),
            AccessPath::Direct,
            "accesses immediately after the fault proceed uninterrupted"
        );
        assert_eq!(mm.stats().faults, 1);
        assert_eq!(mm.stats().direct, 1);
    }

    #[test]
    fn wait_expiry_rearms_fault() {
        let mut mm = mm();
        let vma = mm.map_shared(pid(), ShmId::from_raw(1));
        mm.begin_access(vma, pid(), AccessKind::Write, Timestamp::from_millis(0))
            .unwrap();
        assert_eq!(mm.tick(Timestamp::from_millis(499)), 0, "window still open");
        assert_eq!(mm.tick(Timestamp::from_millis(500)), 1, "window closed");
        assert_eq!(
            mm.begin_access(vma, pid(), AccessKind::Read, Timestamp::from_millis(600))
                .unwrap(),
            AccessPath::Faulted
        );
        assert_eq!(mm.stats().rearms, 1);
    }

    #[test]
    fn access_at_exact_rearm_deadline_refaults_without_tick() {
        // Regression: revoke-then-fault at exactly `t + wait` must hold
        // even when no tick ran between the fault and the boundary access.
        let mut mm = mm();
        let vma = mm.map_shared(pid(), ShmId::from_raw(1));
        let t0 = Timestamp::from_millis(0);
        assert_eq!(
            mm.begin_access(vma, pid(), AccessKind::Write, t0).unwrap(),
            AccessPath::Faulted
        );
        // Strictly inside the window: uninterposed.
        assert_eq!(
            mm.begin_access(
                vma,
                pid(),
                AccessKind::Read,
                t0 + SimDuration::from_millis(499)
            )
            .unwrap(),
            AccessPath::Direct
        );
        // Exactly at the 500 ms deadline, no tick in between: the wait
        // entry expires lazily and the access refaults.
        assert_eq!(
            mm.begin_access(vma, pid(), AccessKind::Read, t0 + WAIT)
                .unwrap(),
            AccessPath::Faulted,
            "boundary access must take the re-armed fault path"
        );
        assert_eq!(mm.stats().rearms, 1, "lazy expiry counts as a re-arm");
        assert_eq!(mm.stats().faults, 2);
        // The refault reopened the window: the next in-window access is
        // direct again.
        assert_eq!(
            mm.begin_access(
                vma,
                pid(),
                AccessKind::Read,
                t0 + WAIT + SimDuration::from_millis(1)
            )
            .unwrap(),
            AccessPath::Direct
        );
    }

    #[test]
    fn interposition_disabled_never_faults() {
        let mut mm = MemoryManager::new(false, WAIT);
        let vma = mm.map_shared(pid(), ShmId::from_raw(1));
        for i in 0..10 {
            assert_eq!(
                mm.begin_access(vma, pid(), AccessKind::Write, Timestamp::from_millis(i))
                    .unwrap(),
                AccessPath::Direct
            );
        }
        assert_eq!(mm.stats().faults, 0);
    }

    #[test]
    fn foreign_process_access_is_eperm() {
        let mut mm = mm();
        let vma = mm.map_shared(pid(), ShmId::from_raw(1));
        assert_eq!(
            mm.begin_access(vma, Pid::from_raw(99), AccessKind::Read, Timestamp::ZERO),
            Err(Errno::Eperm)
        );
    }

    #[test]
    fn unmap_removes_mapping_and_wait_entries() {
        let mut mm = mm();
        let vma = mm.map_shared(pid(), ShmId::from_raw(1));
        mm.begin_access(vma, pid(), AccessKind::Write, Timestamp::ZERO)
            .unwrap();
        assert_eq!(mm.wait_list_len(), 1);
        mm.unmap(vma).unwrap();
        assert_eq!(mm.wait_list_len(), 0);
        assert_eq!(
            mm.begin_access(vma, pid(), AccessKind::Write, Timestamp::ZERO),
            Err(Errno::Efault)
        );
    }

    #[test]
    fn unmap_all_for_process_exit() {
        let mut mm = mm();
        mm.map_shared(pid(), ShmId::from_raw(1));
        mm.map_shared(pid(), ShmId::from_raw(2));
        mm.map_shared(Pid::from_raw(99), ShmId::from_raw(3));
        let removed = mm.unmap_all_for(pid());
        assert_eq!(removed.len(), 2);
        assert_eq!(mm.len(), 1);
    }

    #[test]
    fn two_mappings_fault_independently() {
        let mut mm = mm();
        let a = mm.map_shared(pid(), ShmId::from_raw(1));
        let b = mm.map_shared(pid(), ShmId::from_raw(1));
        assert_eq!(
            mm.begin_access(a, pid(), AccessKind::Write, Timestamp::ZERO)
                .unwrap(),
            AccessPath::Faulted
        );
        assert_eq!(
            mm.begin_access(b, pid(), AccessKind::Write, Timestamp::ZERO)
                .unwrap(),
            AccessPath::Faulted
        );
    }

    #[test]
    fn ablation_wait_zero_faults_every_tick() {
        let mut mm = MemoryManager::new(true, SimDuration::ZERO);
        let vma = mm.map_shared(pid(), ShmId::from_raw(1));
        for i in 0..5 {
            let now = Timestamp::from_millis(i * 10);
            mm.tick(now);
            assert_eq!(
                mm.begin_access(vma, pid(), AccessKind::Write, now).unwrap(),
                AccessPath::Faulted
            );
        }
        assert_eq!(mm.stats().faults, 5);
    }
}
