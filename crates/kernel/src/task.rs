//! The simulated `task_struct`.
//!
//! The paper stores the interaction timestamp "inside the `task_struct`,
//! which is the data structure Linux uses to represent a process"
//! (§IV-B, *Process permission management*). [`Task`] is this reproduction's
//! `task_struct`: per-process identity, the file-descriptor table, and —
//! the heart of Overhaul — the most recent *authentic user interaction*
//! timestamp, plus the ptrace-hardening freeze bit.

use std::collections::BTreeMap;

use overhaul_sim::{Fd, Pid, Timestamp, Uid};

use crate::device::DeviceId;
use crate::ipc::msgqueue::MsgqId;
use crate::ipc::pipe::PipeId;
use crate::ipc::pty::PtyId;
use crate::ipc::unix_socket::{SocketEnd, SocketId};
use crate::policy::{CreditChain, CreditHop, IpcMechanism};
use crate::vfs::InodeId;

/// What an open file descriptor refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileDescription {
    /// A regular file in the VFS.
    Regular {
        /// Backing inode.
        inode: InodeId,
    },
    /// A sensitive hardware device node (microphone, camera, sensor).
    Device {
        /// The device behind the node.
        device: DeviceId,
    },
    /// Read end of an anonymous pipe or FIFO.
    PipeRead {
        /// Backing pipe object.
        pipe: PipeId,
    },
    /// Write end of an anonymous pipe or FIFO.
    PipeWrite {
        /// Backing pipe object.
        pipe: PipeId,
    },
    /// One end of a UNIX domain socket pair.
    Socket {
        /// Backing socket object.
        socket: SocketId,
        /// Which end this descriptor holds.
        end: SocketEnd,
    },
    /// A POSIX message queue descriptor.
    MessageQueue {
        /// Backing queue.
        queue: MsgqId,
    },
    /// Master side of a pseudo-terminal pair (held by the terminal emulator).
    PtyMaster {
        /// Backing pty pair.
        pty: PtyId,
    },
    /// Slave side of a pseudo-terminal pair (held by the shell and its jobs).
    PtySlave {
        /// Backing pty pair.
        pty: PtyId,
    },
}

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Runnable / running.
    Running,
    /// Exited, waiting to be reaped by its parent.
    Zombie {
        /// Exit status code.
        code: i32,
    },
}

/// The simulated `task_struct`.
#[derive(Debug, Clone)]
pub struct Task {
    pid: Pid,
    ppid: Option<Pid>,
    uid: Uid,
    exe_path: String,
    name: String,
    state: TaskState,
    /// Most recent authentic user-interaction timestamp, the field Overhaul
    /// adds to `task_struct`. `None` means "expired / never interacted".
    interaction: Option<Timestamp>,
    /// Bumped on every change that can alter this task's verdicts: new or
    /// adopted interactions, clears, and freeze-bit flips. The verdict
    /// cache keys on it, so a stale epoch invalidates cached decisions.
    interaction_epoch: u64,
    /// Provenance of the stored interaction credit: how the timestamp
    /// reached this task (direct input, fork inheritance, IPC adoption).
    credit: CreditChain,
    /// Set while the process is being traced and ptrace hardening is on:
    /// the permission monitor treats the task as having no interactions.
    permissions_frozen: bool,
    traced_by: Option<Pid>,
    fds: BTreeMap<Fd, FileDescription>,
    next_fd: u32,
    children: Vec<Pid>,
}

impl Task {
    /// Creates a fresh task. Interaction state starts expired: Overhaul
    /// denies sensitive accesses by default.
    pub fn new(pid: Pid, ppid: Option<Pid>, uid: Uid, exe_path: impl Into<String>) -> Self {
        let exe_path = exe_path.into();
        let name = exe_path.rsplit('/').next().unwrap_or(&exe_path).to_string();
        Task {
            pid,
            ppid,
            uid,
            exe_path,
            name,
            state: TaskState::Running,
            interaction: None,
            interaction_epoch: 0,
            credit: CreditChain::empty(),
            permissions_frozen: false,
            traced_by: None,
            fds: BTreeMap::new(),
            next_fd: 3, // 0/1/2 notionally reserved for stdio
            children: Vec::new(),
        }
    }

    /// Duplicates this task for `fork`: the child inherits the file table
    /// and — policy **P1** — the parent's interaction timestamp, exactly as
    /// Linux's `task_struct` copy gives the paper this property "for free".
    pub fn fork_into(&self, child_pid: Pid) -> Task {
        Task {
            pid: child_pid,
            ppid: Some(self.pid),
            uid: self.uid,
            exe_path: self.exe_path.clone(),
            name: self.name.clone(),
            state: TaskState::Running,
            interaction: self.interaction,
            // Pids are never reused and unknown-pid verdicts are never
            // cached, so a fresh child can safely start at epoch 0.
            interaction_epoch: 0,
            credit: if self.interaction.is_some() {
                self.credit.extended(CreditHop::Fork)
            } else {
                CreditChain::empty()
            },
            permissions_frozen: false,
            traced_by: None,
            fds: self.fds.clone(),
            next_fd: self.next_fd,
            children: Vec::new(),
        }
    }

    /// Process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Parent process id, `None` for init.
    pub fn ppid(&self) -> Option<Pid> {
        self.ppid
    }

    /// Owning user.
    pub fn uid(&self) -> Uid {
        self.uid
    }

    /// Changes the owning user (harness setup for non-root processes).
    pub fn set_uid(&mut self, uid: Uid) {
        self.uid = uid;
    }

    /// Filesystem path of the executable image (used by netlink
    /// authentication to recognize the X server).
    pub fn exe_path(&self) -> &str {
        &self.exe_path
    }

    /// Short process name (basename of the executable).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Lifecycle state.
    pub fn state(&self) -> TaskState {
        self.state
    }

    /// Whether the task is alive (not a zombie).
    pub fn is_running(&self) -> bool {
        matches!(self.state, TaskState::Running)
    }

    /// Replaces the executable image (`execve`). The interaction timestamp
    /// survives: exec reuses the same `task_struct`.
    pub fn exec(&mut self, exe_path: impl Into<String>) {
        self.exe_path = exe_path.into();
        self.name = self
            .exe_path
            .rsplit('/')
            .next()
            .unwrap_or(&self.exe_path)
            .to_string();
    }

    /// Marks the task exited.
    pub fn set_zombie(&mut self, code: i32) {
        self.state = TaskState::Zombie { code };
    }

    /// The stored interaction timestamp, if any and not frozen.
    ///
    /// While ptrace hardening has this task frozen, the permission monitor
    /// sees no interactions at all, so this returns `None`.
    pub fn interaction(&self) -> Option<Timestamp> {
        if self.permissions_frozen {
            None
        } else {
            self.interaction
        }
    }

    /// The raw stored timestamp, ignoring the freeze bit. Needed by the IPC
    /// propagation protocol, which copies timestamps even for frozen tasks
    /// (the freeze only gates *decisions*).
    pub fn raw_interaction(&self) -> Option<Timestamp> {
        self.interaction
    }

    /// Records an authentic interaction, keeping the most recent timestamp.
    ///
    /// Returns `true` if the stored timestamp changed — the IPC propagation
    /// protocol uses this to avoid logging no-op propagations.
    pub fn observe_interaction(&mut self, at: Timestamp) -> bool {
        self.observe_with(at, CreditChain::direct())
    }

    /// Records an interaction adopted from an IPC resource (policy **P2**),
    /// attributing the credit to `mechanism` in the propagation chain.
    ///
    /// Same keep-the-most-recent semantics as [`Task::observe_interaction`].
    pub fn adopt_interaction(&mut self, at: Timestamp, mechanism: IpcMechanism) -> bool {
        self.observe_with(at, CreditChain::via(mechanism))
    }

    fn observe_with(&mut self, at: Timestamp, chain: CreditChain) -> bool {
        match self.interaction {
            Some(existing) if existing >= at => false,
            _ => {
                self.interaction = Some(at);
                self.credit = chain;
                self.interaction_epoch += 1;
                true
            }
        }
    }

    /// Clears the interaction record (used by tests and the procfs reset).
    pub fn clear_interaction(&mut self) {
        self.interaction = None;
        self.credit = CreditChain::empty();
        self.interaction_epoch += 1;
    }

    /// The epoch counter behind the verdict cache: any value change means
    /// previously cached verdicts for this task may be stale.
    pub fn interaction_epoch(&self) -> u64 {
        self.interaction_epoch
    }

    /// Provenance of the current interaction credit.
    pub fn credit_chain(&self) -> CreditChain {
        self.credit
    }

    /// Whether ptrace hardening currently freezes this task's permissions.
    pub fn permissions_frozen(&self) -> bool {
        self.permissions_frozen
    }

    /// Sets / clears the ptrace permission freeze. Bumps the interaction
    /// epoch on actual flips: the freeze changes verdicts.
    pub fn set_permissions_frozen(&mut self, frozen: bool) {
        if self.permissions_frozen != frozen {
            self.permissions_frozen = frozen;
            self.interaction_epoch += 1;
        }
    }

    /// The tracer attached to this task, if any.
    pub fn traced_by(&self) -> Option<Pid> {
        self.traced_by
    }

    /// Records (or clears) an attached tracer.
    pub fn set_traced_by(&mut self, tracer: Option<Pid>) {
        self.traced_by = tracer;
    }

    /// Allocates the next file descriptor for `desc`.
    pub fn install_fd(&mut self, desc: FileDescription) -> Fd {
        let fd = Fd::from_raw(self.next_fd);
        self.next_fd += 1;
        self.fds.insert(fd, desc);
        fd
    }

    /// Looks up an open descriptor.
    pub fn fd(&self, fd: Fd) -> Option<FileDescription> {
        self.fds.get(&fd).copied()
    }

    /// Removes a descriptor, returning what it referred to.
    pub fn remove_fd(&mut self, fd: Fd) -> Option<FileDescription> {
        self.fds.remove(&fd)
    }

    /// All open descriptors, in fd order.
    pub fn open_fds(&self) -> impl Iterator<Item = (Fd, FileDescription)> + '_ {
        self.fds.iter().map(|(fd, desc)| (*fd, *desc))
    }

    /// Number of open descriptors.
    pub fn fd_count(&self) -> usize {
        self.fds.len()
    }

    /// Drains the fd table (process exit), returning every description so
    /// the kernel can release the backing objects.
    pub fn drain_fds(&mut self) -> Vec<FileDescription> {
        let drained = std::mem::take(&mut self.fds);
        drained.into_values().collect()
    }

    /// Child pids (live and zombie).
    pub fn children(&self) -> &[Pid] {
        &self.children
    }

    /// Registers a new child.
    pub fn add_child(&mut self, child: Pid) {
        self.children.push(child);
    }

    /// Unregisters a child (reaped or reparented).
    pub fn remove_child(&mut self, child: Pid) {
        self.children.retain(|c| *c != child);
    }

    /// Changes the recorded parent (reparenting to init on parent exit).
    pub fn set_ppid(&mut self, ppid: Option<Pid>) {
        self.ppid = ppid;
    }
}

mod pack {
    //! Snapshot codec for the simulated `task_struct` and its fd table.

    use overhaul_sim::impl_pack;
    use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};

    use super::{FileDescription, Task, TaskState};

    impl Pack for TaskState {
        fn pack(&self, enc: &mut Enc) {
            match self {
                TaskState::Running => enc.put_u8(0),
                TaskState::Zombie { code } => {
                    enc.put_u8(1);
                    code.pack(enc);
                }
            }
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => TaskState::Running,
                1 => TaskState::Zombie {
                    code: Pack::unpack(dec)?,
                },
                _ => return Err(SnapshotError::BadValue("task state")),
            })
        }
    }

    impl Pack for FileDescription {
        fn pack(&self, enc: &mut Enc) {
            match self {
                FileDescription::Regular { inode } => {
                    enc.put_u8(0);
                    inode.pack(enc);
                }
                FileDescription::Device { device } => {
                    enc.put_u8(1);
                    device.pack(enc);
                }
                FileDescription::PipeRead { pipe } => {
                    enc.put_u8(2);
                    pipe.pack(enc);
                }
                FileDescription::PipeWrite { pipe } => {
                    enc.put_u8(3);
                    pipe.pack(enc);
                }
                FileDescription::Socket { socket, end } => {
                    enc.put_u8(4);
                    socket.pack(enc);
                    end.pack(enc);
                }
                FileDescription::MessageQueue { queue } => {
                    enc.put_u8(5);
                    queue.pack(enc);
                }
                FileDescription::PtyMaster { pty } => {
                    enc.put_u8(6);
                    pty.pack(enc);
                }
                FileDescription::PtySlave { pty } => {
                    enc.put_u8(7);
                    pty.pack(enc);
                }
            }
        }
        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            Ok(match dec.take_u8()? {
                0 => FileDescription::Regular {
                    inode: Pack::unpack(dec)?,
                },
                1 => FileDescription::Device {
                    device: Pack::unpack(dec)?,
                },
                2 => FileDescription::PipeRead {
                    pipe: Pack::unpack(dec)?,
                },
                3 => FileDescription::PipeWrite {
                    pipe: Pack::unpack(dec)?,
                },
                4 => FileDescription::Socket {
                    socket: Pack::unpack(dec)?,
                    end: Pack::unpack(dec)?,
                },
                5 => FileDescription::MessageQueue {
                    queue: Pack::unpack(dec)?,
                },
                6 => FileDescription::PtyMaster {
                    pty: Pack::unpack(dec)?,
                },
                7 => FileDescription::PtySlave {
                    pty: Pack::unpack(dec)?,
                },
                _ => return Err(SnapshotError::BadValue("file description")),
            })
        }
    }

    impl_pack!(Task {
        pid,
        ppid,
        uid,
        exe_path,
        name,
        state,
        interaction,
        interaction_epoch,
        credit,
        permissions_frozen,
        traced_by,
        fds,
        next_fd,
        children
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> Task {
        Task::new(
            Pid::from_raw(10),
            Some(Pid::INIT),
            Uid::from_raw(1000),
            "/usr/bin/app",
        )
    }

    #[test]
    fn name_is_basename_of_exe() {
        let t = task();
        assert_eq!(t.name(), "app");
        assert_eq!(t.exe_path(), "/usr/bin/app");
    }

    #[test]
    fn interaction_keeps_most_recent() {
        let mut t = task();
        assert!(t.observe_interaction(Timestamp::from_millis(100)));
        assert!(
            !t.observe_interaction(Timestamp::from_millis(50)),
            "older must not overwrite"
        );
        assert!(
            !t.observe_interaction(Timestamp::from_millis(100)),
            "equal is a no-op"
        );
        assert!(t.observe_interaction(Timestamp::from_millis(150)));
        assert_eq!(t.interaction(), Some(Timestamp::from_millis(150)));
    }

    #[test]
    fn fork_copies_interaction_timestamp_p1() {
        let mut parent = task();
        parent.observe_interaction(Timestamp::from_millis(500));
        let child = parent.fork_into(Pid::from_raw(11));
        assert_eq!(child.interaction(), Some(Timestamp::from_millis(500)));
        assert_eq!(child.ppid(), Some(parent.pid()));
    }

    #[test]
    fn fork_does_not_inherit_freeze_or_tracer() {
        let mut parent = task();
        parent.set_permissions_frozen(true);
        parent.set_traced_by(Some(Pid::INIT));
        let child = parent.fork_into(Pid::from_raw(11));
        assert!(!child.permissions_frozen());
        assert_eq!(child.traced_by(), None);
    }

    #[test]
    fn freeze_hides_interaction_from_monitor_view() {
        let mut t = task();
        t.observe_interaction(Timestamp::from_millis(10));
        t.set_permissions_frozen(true);
        assert_eq!(
            t.interaction(),
            None,
            "frozen task must look interaction-less"
        );
        assert_eq!(t.raw_interaction(), Some(Timestamp::from_millis(10)));
        t.set_permissions_frozen(false);
        assert_eq!(t.interaction(), Some(Timestamp::from_millis(10)));
    }

    #[test]
    fn exec_preserves_interaction() {
        let mut t = task();
        t.observe_interaction(Timestamp::from_millis(30));
        t.exec("/usr/bin/other");
        assert_eq!(t.name(), "other");
        assert_eq!(t.interaction(), Some(Timestamp::from_millis(30)));
    }

    #[test]
    fn fd_install_lookup_remove() {
        let mut t = task();
        let fd = t.install_fd(FileDescription::PipeRead {
            pipe: PipeId::from_raw(1),
        });
        assert_eq!(
            t.fd(fd),
            Some(FileDescription::PipeRead {
                pipe: PipeId::from_raw(1)
            })
        );
        assert_eq!(t.fd_count(), 1);
        let removed = t.remove_fd(fd).unwrap();
        assert!(matches!(removed, FileDescription::PipeRead { .. }));
        assert_eq!(t.fd(fd), None);
    }

    #[test]
    fn fds_are_unique_and_increasing() {
        let mut t = task();
        let a = t.install_fd(FileDescription::Regular {
            inode: InodeId::from_raw(1),
        });
        let b = t.install_fd(FileDescription::Regular {
            inode: InodeId::from_raw(2),
        });
        assert!(b > a);
    }

    #[test]
    fn drain_fds_empties_table() {
        let mut t = task();
        t.install_fd(FileDescription::Regular {
            inode: InodeId::from_raw(1),
        });
        t.install_fd(FileDescription::Device {
            device: DeviceId::from_raw(1),
        });
        let drained = t.drain_fds();
        assert_eq!(drained.len(), 2);
        assert_eq!(t.fd_count(), 0);
    }

    #[test]
    fn zombie_state_round_trip() {
        let mut t = task();
        assert!(t.is_running());
        t.set_zombie(3);
        assert!(!t.is_running());
        assert_eq!(t.state(), TaskState::Zombie { code: 3 });
    }

    #[test]
    fn epoch_bumps_on_every_verdict_relevant_change() {
        let mut t = task();
        let e0 = t.interaction_epoch();
        assert!(t.observe_interaction(Timestamp::from_millis(100)));
        assert_eq!(t.interaction_epoch(), e0 + 1);
        // A rejected (older) interaction changes nothing.
        assert!(!t.observe_interaction(Timestamp::from_millis(50)));
        assert_eq!(t.interaction_epoch(), e0 + 1);
        t.set_permissions_frozen(true);
        assert_eq!(t.interaction_epoch(), e0 + 2);
        // Redundant freeze is a no-op.
        t.set_permissions_frozen(true);
        assert_eq!(t.interaction_epoch(), e0 + 2);
        t.set_permissions_frozen(false);
        assert_eq!(t.interaction_epoch(), e0 + 3);
        t.clear_interaction();
        assert_eq!(t.interaction_epoch(), e0 + 4);
        assert!(t.credit_chain().is_empty());
    }

    #[test]
    fn credit_chain_tracks_provenance() {
        let mut t = task();
        assert!(t.credit_chain().is_empty());
        t.observe_interaction(Timestamp::from_millis(100));
        assert_eq!(t.credit_chain().hops(), &[CreditHop::Direct]);
        assert!(t.adopt_interaction(Timestamp::from_millis(200), IpcMechanism::Pipe));
        assert_eq!(
            t.credit_chain().hops(),
            &[CreditHop::Ipc(IpcMechanism::Pipe)]
        );
        // A rejected adoption leaves the chain untouched.
        assert!(!t.adopt_interaction(Timestamp::from_millis(150), IpcMechanism::Shm));
        assert_eq!(
            t.credit_chain().hops(),
            &[CreditHop::Ipc(IpcMechanism::Pipe)]
        );
    }

    #[test]
    fn fork_extends_chain_and_resets_epoch() {
        let mut parent = task();
        parent.observe_interaction(Timestamp::from_millis(500));
        let child = parent.fork_into(Pid::from_raw(11));
        assert_eq!(
            child.credit_chain().hops(),
            &[CreditHop::Direct, CreditHop::Fork]
        );
        assert_eq!(child.interaction_epoch(), 0);

        let blank_child = task().fork_into(Pid::from_raw(12));
        assert!(blank_child.credit_chain().is_empty());
    }

    #[test]
    fn child_bookkeeping() {
        let mut t = task();
        t.add_child(Pid::from_raw(20));
        t.add_child(Pid::from_raw(21));
        t.remove_child(Pid::from_raw(20));
        assert_eq!(t.children(), &[Pid::from_raw(21)]);
    }
}
