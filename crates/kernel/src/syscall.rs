//! The syscall surface of the simulated kernel.
//!
//! Three families live here:
//!
//! * **process** — `fork`, `execve`, `exit`, `waitpid`, `spawn`
//!   (fork+exec), `ptrace`;
//! * **file** — `open` (with Overhaul's device mediation, Figure 1),
//!   `creat`, `read`, `write`, `close`, `stat`, `unlink`, `mkdir`;
//! * **IPC** — pipes, FIFOs, UNIX socket pairs, SysV/POSIX message queues,
//!   SysV/POSIX shared memory (page-fault interposed), pseudo-terminals.
//!
//! Every IPC send embeds the sender's interaction timestamp into the
//! resource and every receive adopts a newer embedded timestamp into the
//! receiver's `task_struct` — policy **P2** — when Overhaul is enabled.
//!
//! Simplifications relative to real Linux, none of which affect the
//! security mechanism: regular-file reads return the whole contents
//! (no offsets), writes append, and the open mode is not re-checked on
//! subsequent reads/writes.

use overhaul_sim::work;
use overhaul_sim::{AuditCategory, Effect, Fd, LedgerEntry, Pid, Timestamp, TraceValue, Uid};

use crate::device::DeviceClass;
use crate::error::{Errno, SysResult};
use crate::ipc::msgqueue::{Message, MsgqId};
use crate::ipc::pty::{PtyId, PtySide};
use crate::ipc::shm::ShmId;
use crate::ipc::unix_socket::SocketEnd;
use crate::ipc::{adopt_on_receive, embed_on_send};
use crate::mm::{AccessKind, AccessPath, VmaId};
use crate::monitor::ResourceOp;
use crate::netlink::ChannelState;
use crate::policy::IpcMechanism;
use crate::task::FileDescription;
use crate::vfs::{InodeKind, Stat};
use crate::Kernel;

/// Access mode requested by `open(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// `O_RDONLY`.
    ReadOnly,
    /// `O_WRONLY`.
    WriteOnly,
    /// `O_RDWR`.
    ReadWrite,
}

impl OpenMode {
    fn wants_write(self) -> bool {
        !matches!(self, OpenMode::ReadOnly)
    }
}

impl Kernel {
    /// Validates that `pid` is a live process able to make syscalls
    /// (zombies cannot), returning its task.
    fn caller(&self, pid: Pid) -> SysResult<&crate::task::Task> {
        let task = self.tasks.get(pid)?;
        if !task.is_running() {
            return Err(Errno::Esrch);
        }
        Ok(task)
    }

    /// Mutable variant of [`Kernel::caller`].
    fn caller_mut(&mut self, pid: Pid) -> SysResult<&mut crate::task::Task> {
        let task = self.tasks.get_mut(pid)?;
        if !task.is_running() {
            return Err(Errno::Esrch);
        }
        Ok(task)
    }

    // ===============================================================
    // Process syscalls
    // ===============================================================

    /// `fork(2)`: duplicates `parent`, bumping IPC reference counts for the
    /// inherited descriptors and copying the interaction timestamp (**P1**).
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if the parent is dead.
    pub fn sys_fork(&mut self, parent: Pid) -> SysResult<Pid> {
        let child = self.tasks.fork(parent)?;
        let inherited: Vec<FileDescription> = self
            .tasks
            .get(child)
            .expect("just created")
            .open_fds()
            .map(|(_, d)| d)
            .collect();
        for desc in inherited {
            match desc {
                FileDescription::PipeRead { pipe } => {
                    let _ = self.pipes.add_reader(pipe);
                }
                FileDescription::PipeWrite { pipe } => {
                    let _ = self.pipes.add_writer(pipe);
                }
                FileDescription::Socket { socket, end } => {
                    let _ = self.sockets.add_ref(socket, end);
                }
                // Ptys use liveness scans, queues/devices/files are
                // not reference counted.
                _ => {}
            }
        }
        Ok(child)
    }

    /// `execve(2)`: replaces the image of `pid`; the interaction timestamp
    /// survives because the `task_struct` is reused.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if the process is dead.
    pub fn sys_execve(&mut self, pid: Pid, exe_path: &str) -> SysResult<()> {
        self.tasks.exec(pid, exe_path)
    }

    /// `fork` + `execve` in one step.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if the parent is dead.
    pub fn sys_spawn(&mut self, parent: Pid, exe_path: &str) -> SysResult<Pid> {
        let child = self.sys_fork(parent)?;
        self.sys_execve(child, exe_path)?;
        Ok(child)
    }

    /// [`Kernel::sys_spawn`] that also switches the child to `uid`
    /// (harness convenience for setting up unprivileged processes).
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if the parent is dead.
    pub fn sys_spawn_as(&mut self, parent: Pid, exe_path: &str, uid: Uid) -> SysResult<Pid> {
        let child = self.sys_spawn(parent, exe_path)?;
        self.tasks.get_mut(child)?.set_uid(uid);
        Ok(child)
    }

    /// `exit(2)`: releases every kernel object the process held.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if already dead, [`Errno::Eperm`] for init.
    pub fn sys_exit(&mut self, pid: Pid, code: i32) -> SysResult<()> {
        let drained = self.tasks.exit(pid, code)?;
        // Drop the exiting task's cached verdicts and explain-last state:
        // a zombie can never act again, and eager eviction is what keeps
        // the per-task derived state bounded by the live task count under
        // unbounded churn.
        if let Some(slot) = self.tasks.slot_of(pid) {
            self.verdict_cache.evict(slot);
        }
        for desc in drained {
            self.release_description(pid, desc);
        }
        for vma in self.mm.unmap_all_for(pid) {
            self.shm.detach(vma.shm());
        }
        // Eager netlink invalidation: the exiting process's channels die
        // with it, here and now, so a later process recycling this pid can
        // never inherit an authenticated connection.
        let state_before = self.netlink.state();
        let (dropped, display_lost) = self.netlink.invalidate_peer(pid);
        if dropped > 0 {
            self.ledger.append(LedgerEntry::event(
                self.clock.now(),
                AuditCategory::ChannelEvent,
                Some(pid),
                "netlink: connections invalidated on process exit",
            ));
        }
        if display_lost && state_before != ChannelState::Down {
            self.ledger.append(
                LedgerEntry::event(
                    self.clock.now(),
                    AuditCategory::ChannelEvent,
                    Some(pid),
                    match state_before {
                        ChannelState::Up => "channel state: up -> down (display manager exited)",
                        _ => "channel state: degraded -> down (display manager exited)",
                    },
                )
                .with_effect(Effect::Channel {
                    to: ChannelState::Down,
                }),
            );
        }
        Ok(())
    }

    /// `dup(2)`: duplicates a descriptor, bumping the backing object's
    /// reference count where one exists.
    ///
    /// # Errors
    ///
    /// [`Errno::Ebadf`] for unknown descriptors.
    pub fn sys_dup(&mut self, pid: Pid, fd: Fd) -> SysResult<Fd> {
        let desc = self.caller(pid)?.fd(fd).ok_or(Errno::Ebadf)?;
        match desc {
            FileDescription::PipeRead { pipe } => self.pipes.add_reader(pipe)?,
            FileDescription::PipeWrite { pipe } => self.pipes.add_writer(pipe)?,
            FileDescription::Socket { socket, end } => self.sockets.add_ref(socket, end)?,
            _ => {}
        }
        Ok(self.caller_mut(pid)?.install_fd(desc))
    }

    /// `kill(2)` with `SIGKILL` semantics: `killer` terminates `target`.
    /// Permitted for root or a process of the same uid.
    ///
    /// # Errors
    ///
    /// [`Errno::Eperm`] across uid boundaries (and for init),
    /// [`Errno::Esrch`] for dead targets.
    pub fn sys_kill(&mut self, killer: Pid, target: Pid) -> SysResult<()> {
        let killer_uid = self.caller(killer)?.uid();
        let target_uid = self.caller(target)?.uid();
        if !killer_uid.is_root() && killer_uid != target_uid {
            return Err(Errno::Eperm);
        }
        self.sys_exit(target, 137)
    }

    /// `waitpid(2)`: reaps a zombie child.
    ///
    /// # Errors
    ///
    /// [`Errno::Eagain`] while the child runs, [`Errno::Esrch`] for
    /// non-children.
    pub fn sys_waitpid(&mut self, parent: Pid, child: Pid) -> SysResult<i32> {
        let slot = self.tasks.slot_of(child);
        let code = self.tasks.wait(parent, child)?;
        // Reaping frees the arena slot for reuse; evict any cells decided
        // about the zombie after its exit-time eviction.
        if let Some(slot) = slot {
            self.verdict_cache.evict(slot);
        }
        Ok(code)
    }

    /// `PTRACE_ATTACH` with Overhaul's hardening (freezes the tracee's
    /// permissions while attached).
    ///
    /// # Errors
    ///
    /// See [`crate::ptrace::PtracePolicy::attach`].
    pub fn sys_ptrace_attach(&mut self, tracer: Pid, tracee: Pid) -> SysResult<()> {
        let policy = self.ptrace;
        policy.attach(&mut self.tasks, tracer, tracee)?;
        if policy.hardening_enabled {
            self.ledger.append(LedgerEntry::event(
                self.clock.now(),
                AuditCategory::PtraceHardening,
                Some(tracee),
                format!("permissions frozen while traced by {tracer}"),
            ));
        }
        Ok(())
    }

    /// `PTRACE_DETACH`.
    ///
    /// # Errors
    ///
    /// See [`crate::ptrace::PtracePolicy::detach`].
    pub fn sys_ptrace_detach(&mut self, tracer: Pid, tracee: Pid) -> SysResult<()> {
        let policy = self.ptrace;
        policy.detach(&mut self.tasks, tracer, tracee)
    }

    // ===============================================================
    // File syscalls
    // ===============================================================

    /// `open(2)`. For sensitive device nodes this is Overhaul's mediation
    /// point (Figure 1): the permission monitor correlates the open with
    /// the caller's latest authentic interaction; on a deny the caller sees
    /// a plain `EACCES`, and a visual-alert request is queued either way.
    ///
    /// # Errors
    ///
    /// Standard path/permission errors, plus [`Errno::Eacces`] when
    /// Overhaul blocks a device open.
    pub fn sys_open(&mut self, pid: Pid, path: &str, mode: OpenMode) -> SysResult<Fd> {
        let uid = self.caller(pid)?.uid();
        let inode_id = self.vfs.resolve(path)?;
        let inode = self.vfs.inode(inode_id)?;
        if !inode.permits(uid, mode.wants_write()) {
            return Err(Errno::Eacces);
        }
        let kind = inode.kind().clone();
        match kind {
            InodeKind::Directory { .. } => Err(Errno::Eisdir),
            InodeKind::Regular { .. } => Ok(self
                .caller_mut(pid)?
                .install_fd(FileDescription::Regular { inode: inode_id })),
            InodeKind::DeviceNode { device } => {
                if self.config.overhaul_enabled {
                    let mapped = self.device_map.lookup(path);
                    // A quarantined device is one whose old path the helper
                    // revoked while its update for the new path is still in
                    // flight: unreachable until the map converges (fail
                    // closed), audited/alerted like any other deny.
                    let quarantined = mapped.is_none() && self.device_map.is_quarantined(device);
                    if let Some(mapped) = mapped {
                        debug_assert_eq!(mapped, device, "helper map out of sync with vfs");
                    }
                    if mapped.is_some() || quarantined {
                        let now = self.clock.now();
                        let op = match self.devices.get(device)?.class() {
                            DeviceClass::Microphone => ResourceOp::Mic,
                            DeviceClass::Camera => ResourceOp::Cam,
                            DeviceClass::Sensor => ResourceOp::Sensor,
                        };
                        let outcome = self.decide_traced(pid, now, op, quarantined);
                        self.queue_device_alert(pid, op, &outcome, now);
                        if !outcome.decision.verdict.is_grant() {
                            return Err(Errno::Eacces);
                        }
                    }
                    // Device node unknown to the helper map (and not
                    // quarantined): mediation is skipped — the documented
                    // helper-lag gap.
                }
                self.devices.record_open(device)?;
                self.cost.driver_open_ns += work::DRIVER_OPEN_NS;
                Ok(self
                    .caller_mut(pid)?
                    .install_fd(FileDescription::Device { device }))
            }
            InodeKind::Fifo { pipe } => {
                let desc = match mode {
                    OpenMode::ReadOnly => {
                        self.pipes.add_reader(pipe)?;
                        FileDescription::PipeRead { pipe }
                    }
                    OpenMode::WriteOnly => {
                        self.pipes.add_writer(pipe)?;
                        FileDescription::PipeWrite { pipe }
                    }
                    OpenMode::ReadWrite => return Err(Errno::Einval),
                };
                Ok(self.caller_mut(pid)?.install_fd(desc))
            }
        }
    }

    /// `creat(2)`: creates a regular file owned by the caller and opens it.
    ///
    /// # Errors
    ///
    /// [`Errno::Eexist`] if the path exists.
    pub fn sys_creat(&mut self, pid: Pid, path: &str, mode: u16) -> SysResult<Fd> {
        let uid = self.caller(pid)?.uid();
        self.cost.file_create_ns += work::FILE_CREATE_NS;
        let inode = self.vfs.create_file(path, uid, mode)?;
        Ok(self
            .caller_mut(pid)?
            .install_fd(FileDescription::Regular { inode }))
    }

    /// `close(2)`.
    ///
    /// # Errors
    ///
    /// [`Errno::Ebadf`] for unknown descriptors.
    pub fn sys_close(&mut self, pid: Pid, fd: Fd) -> SysResult<()> {
        let desc = self.caller_mut(pid)?.remove_fd(fd).ok_or(Errno::Ebadf)?;
        self.release_description(pid, desc);
        Ok(())
    }

    /// `read(2)`: dispatches on the descriptor type. IPC reads run the
    /// timestamp-adoption half of the propagation protocol.
    ///
    /// # Errors
    ///
    /// [`Errno::Ebadf`], or the backing object's error ([`Errno::Eagain`]
    /// on empty channels, ...).
    pub fn sys_read(&mut self, pid: Pid, fd: Fd, max: usize) -> SysResult<Vec<u8>> {
        let desc = self.caller(pid)?.fd(fd).ok_or(Errno::Ebadf)?;
        match desc {
            FileDescription::Regular { inode } => Ok(self.vfs.read_all(inode)?.to_vec()),
            FileDescription::Device { device } => self.devices.read_sample(device),
            FileDescription::PipeRead { pipe } => {
                let data = self.pipes.read(pipe, max)?;
                if !data.is_empty() {
                    let slot = self.pipes.get(pipe)?.embedded_ts();
                    self.adopt_into(pid, slot, IpcMechanism::Pipe);
                }
                Ok(data)
            }
            FileDescription::PipeWrite { .. } => Err(Errno::Ebadf),
            FileDescription::Socket { socket, end } => {
                let data = self.sockets.recv(socket, end)?;
                let slot = self.sockets.get(socket)?.embedded_ts_from(end.peer());
                self.adopt_into(pid, slot, IpcMechanism::UnixSocket);
                Ok(data)
            }
            FileDescription::MessageQueue { queue } => {
                let msg = self.msgqueues.receive(queue, 0)?;
                let slot = self.msgqueues.get(queue)?.embedded_ts();
                self.adopt_into(pid, slot, IpcMechanism::PosixMq);
                Ok(msg.data)
            }
            FileDescription::PtyMaster { pty } => self.pty_read(pid, pty, PtySide::Master, max),
            FileDescription::PtySlave { pty } => self.pty_read(pid, pty, PtySide::Slave, max),
        }
    }

    /// `write(2)`: dispatches on the descriptor type. IPC writes run the
    /// timestamp-embedding half of the propagation protocol.
    ///
    /// # Errors
    ///
    /// [`Errno::Ebadf`], or the backing object's error ([`Errno::Epipe`]
    /// on reader-less pipes, ...).
    pub fn sys_write(&mut self, pid: Pid, fd: Fd, bytes: &[u8]) -> SysResult<usize> {
        let desc = self.caller(pid)?.fd(fd).ok_or(Errno::Ebadf)?;
        match desc {
            FileDescription::Regular { inode } => self.vfs.append(inode, bytes),
            FileDescription::Device { .. } => Err(Errno::Einval),
            FileDescription::PipeWrite { pipe } => {
                let sender = self.sender_ts(pid);
                let written = self.pipes.write(pipe, bytes)?;
                self.embed_into_pipe(pid, pipe, sender);
                Ok(written)
            }
            FileDescription::PipeRead { .. } => Err(Errno::Ebadf),
            FileDescription::Socket { socket, end } => {
                let sender = self.sender_ts(pid);
                self.sockets.send(socket, end, bytes.to_vec())?;
                if self.config.overhaul_enabled {
                    let slot = self.sockets.embedded_ts_mut(socket, end)?;
                    if embed_on_send(slot, sender) {
                        self.audit_propagation_embed(pid, "unix-socket");
                    }
                }
                Ok(bytes.len())
            }
            FileDescription::MessageQueue { queue } => {
                let sender = self.sender_ts(pid);
                self.msgqueues.send(
                    queue,
                    Message {
                        mtype: 0,
                        data: bytes.to_vec(),
                    },
                )?;
                if self.config.overhaul_enabled {
                    let slot = self.msgqueues.embedded_ts_mut(queue)?;
                    if embed_on_send(slot, sender) {
                        self.audit_propagation_embed(pid, "posix-mq");
                    }
                }
                Ok(bytes.len())
            }
            FileDescription::PtyMaster { pty } => self.pty_write(pid, pty, PtySide::Master, bytes),
            FileDescription::PtySlave { pty } => self.pty_write(pid, pty, PtySide::Slave, bytes),
        }
    }

    /// `stat(2)`.
    ///
    /// # Errors
    ///
    /// Path resolution errors.
    pub fn sys_stat(&self, _pid: Pid, path: &str) -> SysResult<Stat> {
        self.vfs.stat(path)
    }

    /// `unlink(2)`: caller must own the node or be root. Unlinking a FIFO
    /// releases the name's pipe references.
    ///
    /// # Errors
    ///
    /// [`Errno::Eacces`] for foreign files, path errors otherwise.
    pub fn sys_unlink(&mut self, pid: Pid, path: &str) -> SysResult<()> {
        let uid = self.caller(pid)?.uid();
        let inode = self.vfs.inode(self.vfs.resolve(path)?)?;
        if !uid.is_root() && inode.owner() != uid {
            return Err(Errno::Eacces);
        }
        let fifo_pipe = match inode.kind() {
            InodeKind::Fifo { pipe } => Some(*pipe),
            _ => None,
        };
        self.vfs.unlink(path)?;
        if let Some(pipe) = fifo_pipe {
            self.pipes.release_reader(pipe);
            self.pipes.release_writer(pipe);
        }
        if self.device_map.remove(path).is_some() {
            // Historically unaudited: record the unmap silently so the
            // ledger reduction tracks the device map exactly.
            self.ledger.append(LedgerEntry::silent(
                self.clock.now(),
                Effect::DeviceRemoved {
                    path: path.to_string(),
                },
            ));
        }
        Ok(())
    }

    /// `mkdir(2)`.
    ///
    /// # Errors
    ///
    /// Path errors ([`Errno::Eexist`], ...).
    pub fn sys_mkdir(&mut self, pid: Pid, path: &str, mode: u16) -> SysResult<()> {
        let uid = self.caller(pid)?.uid();
        self.vfs.mkdir(path, uid, mode)?;
        Ok(())
    }

    // ===============================================================
    // IPC syscalls
    // ===============================================================

    /// `pipe(2)`: returns `(read_fd, write_fd)`.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] for dead callers.
    pub fn sys_pipe(&mut self, pid: Pid) -> SysResult<(Fd, Fd)> {
        self.caller(pid)?;
        let pipe = self.pipes.create();
        let task = self.tasks.get_mut(pid)?;
        let r = task.install_fd(FileDescription::PipeRead { pipe });
        let w = task.install_fd(FileDescription::PipeWrite { pipe });
        Ok((r, w))
    }

    /// `mkfifo(3)`: creates a named pipe. The name itself keeps the backing
    /// pipe alive until `unlink`.
    ///
    /// # Errors
    ///
    /// [`Errno::Eexist`] if the path exists.
    pub fn sys_mkfifo(&mut self, pid: Pid, path: &str, mode: u16) -> SysResult<()> {
        let uid = self.caller(pid)?.uid();
        self.vfs.mkfifo(path, || self.pipes.create(), uid, mode)?;
        Ok(())
    }

    /// `socketpair(2)`: both end descriptors are installed in `pid`; pass
    /// one to a child via `fork`.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] for dead callers.
    pub fn sys_socketpair(&mut self, pid: Pid) -> SysResult<(Fd, Fd)> {
        self.caller(pid)?;
        let socket = self.sockets.create_pair();
        let task = self.tasks.get_mut(pid)?;
        let a = task.install_fd(FileDescription::Socket {
            socket,
            end: SocketEnd::A,
        });
        let b = task.install_fd(FileDescription::Socket {
            socket,
            end: SocketEnd::B,
        });
        Ok((a, b))
    }

    /// `msgget(2)` (SysV).
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] for dead callers.
    pub fn sys_msgget(&mut self, pid: Pid, key: i32) -> SysResult<MsgqId> {
        self.caller(pid)?;
        Ok(self.msgqueues.sysv_get(key))
    }

    /// `msgsnd(2)` (SysV): embeds the sender's interaction timestamp.
    ///
    /// # Errors
    ///
    /// [`Errno::Einval`] for unknown queues.
    pub fn sys_msgsnd(
        &mut self,
        pid: Pid,
        queue: MsgqId,
        mtype: i64,
        data: &[u8],
    ) -> SysResult<()> {
        self.caller(pid)?;
        let sender = self.sender_ts(pid);
        self.msgqueues.send(
            queue,
            Message {
                mtype,
                data: data.to_vec(),
            },
        )?;
        if self.config.overhaul_enabled {
            let slot = self.msgqueues.embedded_ts_mut(queue)?;
            if embed_on_send(slot, sender) {
                self.audit_propagation_embed(pid, "sysv-msgq");
            }
        }
        Ok(())
    }

    /// `msgrcv(2)` (SysV): adopts the queue's embedded timestamp.
    ///
    /// # Errors
    ///
    /// [`Errno::Enomsg`] when no matching message is queued.
    pub fn sys_msgrcv(&mut self, pid: Pid, queue: MsgqId, mtype: i64) -> SysResult<Message> {
        self.caller(pid)?;
        let msg = self.msgqueues.receive(queue, mtype)?;
        let slot = self.msgqueues.get(queue)?.embedded_ts();
        self.adopt_into(pid, slot, IpcMechanism::SysvMsgq);
        Ok(msg)
    }

    /// `mq_open(3)` (POSIX): returns a descriptor usable with
    /// [`Kernel::sys_read`] / [`Kernel::sys_write`].
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] for dead callers.
    pub fn sys_mq_open(&mut self, pid: Pid, name: &str) -> SysResult<Fd> {
        self.caller(pid)?;
        let queue = self.msgqueues.posix_open(name);
        Ok(self
            .caller_mut(pid)?
            .install_fd(FileDescription::MessageQueue { queue }))
    }

    /// `shmget(2)` (SysV).
    ///
    /// # Errors
    ///
    /// [`Errno::Einval`] for zero pages or an undersized existing segment.
    pub fn sys_shmget(&mut self, pid: Pid, key: i32, pages: usize) -> SysResult<ShmId> {
        self.caller(pid)?;
        self.shm.sysv_get(key, pages)
    }

    /// `shm_open(3)` + `ftruncate` (POSIX).
    ///
    /// # Errors
    ///
    /// [`Errno::Einval`] for zero pages or an undersized existing segment.
    pub fn sys_shm_open(&mut self, pid: Pid, name: &str, pages: usize) -> SysResult<ShmId> {
        self.caller(pid)?;
        self.shm.posix_open(name, pages)
    }

    /// `shmat(2)` / `mmap(MAP_SHARED)`: maps the segment. Under Overhaul
    /// the new mapping starts with permissions revoked so its first access
    /// faults into the propagation protocol.
    ///
    /// # Errors
    ///
    /// [`Errno::Einval`] for unknown segments.
    pub fn sys_shmat(&mut self, pid: Pid, shm: ShmId) -> SysResult<VmaId> {
        self.caller(pid)?;
        self.shm.attach(shm)?;
        Ok(self.mm.map_shared(pid, shm))
    }

    /// `shmdt(2)` / `munmap`.
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] for unknown mappings.
    pub fn sys_shmdt(&mut self, pid: Pid, vma: VmaId) -> SysResult<()> {
        let mapping = self.mm.vma(vma)?;
        if mapping.pid() != pid {
            return Err(Errno::Eperm);
        }
        self.mm.unmap(vma)?;
        self.shm.detach(mapping.shm());
        Ok(())
    }

    /// A store to a shared mapping. Under Overhaul the first access after
    /// (re-)revocation takes a simulated page fault, where the sender's
    /// timestamp is embedded into the segment; the mapping then stays
    /// fault-free for the wait window (paper: 500 ms).
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] for out-of-bounds or unknown mappings,
    /// [`Errno::Eperm`] for foreign mappings.
    pub fn sys_shm_write(
        &mut self,
        pid: Pid,
        vma: VmaId,
        offset: usize,
        bytes: &[u8],
    ) -> SysResult<()> {
        self.caller(pid)?;
        let mapping = self.mm.vma(vma)?;
        let now = self.clock.now();
        let fault_t0 = std::time::Instant::now();
        let path = self.mm.begin_access(vma, pid, AccessKind::Write, now)?;
        if path == AccessPath::Faulted {
            let span = self.tracer.event(
                "mm.fault",
                now,
                &[
                    ("pid", TraceValue::U64(u64::from(pid.as_raw()))),
                    ("vma", TraceValue::U64(vma.as_raw())),
                    ("kind", TraceValue::Static("write")),
                ],
            );
            let sender = self.sender_ts(pid);
            let slot = self.shm.embedded_ts_mut(mapping.shm())?;
            if embed_on_send(slot, sender) {
                self.audit_propagation_embed(pid, "shm");
            }
            self.record_mm_fault_sketch(fault_t0, span);
        }
        self.shm.write(mapping.shm(), offset, bytes)
    }

    /// A load from a shared mapping; the fault path adopts the segment's
    /// embedded timestamp into the reader.
    ///
    /// # Errors
    ///
    /// [`Errno::Efault`] for out-of-bounds or unknown mappings,
    /// [`Errno::Eperm`] for foreign mappings.
    pub fn sys_shm_read(
        &mut self,
        pid: Pid,
        vma: VmaId,
        offset: usize,
        len: usize,
    ) -> SysResult<Vec<u8>> {
        self.caller(pid)?;
        let mapping = self.mm.vma(vma)?;
        let now = self.clock.now();
        let fault_t0 = std::time::Instant::now();
        let path = self.mm.begin_access(vma, pid, AccessKind::Read, now)?;
        if path == AccessPath::Faulted {
            let span = self.tracer.event(
                "mm.fault",
                now,
                &[
                    ("pid", TraceValue::U64(u64::from(pid.as_raw()))),
                    ("vma", TraceValue::U64(vma.as_raw())),
                    ("kind", TraceValue::Static("read")),
                ],
            );
            let slot = self.shm.get(mapping.shm())?.embedded_ts();
            self.adopt_into(pid, slot, IpcMechanism::Shm);
            self.record_mm_fault_sketch(fault_t0, span);
        }
        self.shm.read(mapping.shm(), offset, len)
    }

    /// `openpty(3)`: allocates a pseudo-terminal pair, returning
    /// `(master_fd, slave_fd)`. Hand the slave to the shell via `fork`.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] for dead callers.
    pub fn sys_openpty(&mut self, pid: Pid) -> SysResult<(Fd, Fd)> {
        self.caller(pid)?;
        let pty = self.ptys.open_pair();
        let task = self.tasks.get_mut(pid)?;
        let master = task.install_fd(FileDescription::PtyMaster { pty });
        let slave = task.install_fd(FileDescription::PtySlave { pty });
        Ok((master, slave))
    }

    /// Lands one interposition fault in the [`Mechanism::MmFault`] sketch:
    /// faults are rare enough to record at full rate, and the exemplar
    /// carries the `mm.fault` trace event as its span coordinate.
    fn record_mm_fault_sketch(
        &mut self,
        t0: std::time::Instant,
        span: Option<overhaul_sim::SpanId>,
    ) {
        let seq = self.ledger.next_seq().saturating_sub(1);
        self.sketch.record(
            overhaul_sim::Mechanism::MmFault,
            0,
            t0.elapsed().as_nanos() as u64,
            span.map_or(0, |s| s.as_raw()),
            seq,
        );
    }

    // ===============================================================
    // Propagation plumbing
    // ===============================================================

    /// The timestamp a sending process contributes to the propagation
    /// protocol: its *decision-visible* interaction timestamp. A frozen
    /// (ptrace-hardened) process contributes nothing — a debugger must not
    /// be able to launder permissions out of its tracee.
    fn sender_ts(&self, pid: Pid) -> Option<Timestamp> {
        if !self.config.overhaul_enabled || !self.config.ipc_propagation {
            return None;
        }
        self.tasks.get(pid).ok().and_then(|t| t.interaction())
    }

    fn embed_into_pipe(
        &mut self,
        pid: Pid,
        pipe: crate::ipc::pipe::PipeId,
        sender: Option<Timestamp>,
    ) {
        if !self.config.overhaul_enabled {
            return;
        }
        if let Ok(p) = self.pipes.get_mut(pipe) {
            if embed_on_send(p.embedded_ts_mut(), sender) {
                self.audit_propagation_embed(pid, "pipe");
            }
        }
    }

    fn pty_read(&mut self, pid: Pid, pty: PtyId, side: PtySide, max: usize) -> SysResult<Vec<u8>> {
        let data = self.ptys.read(pty, side, max)?;
        if !data.is_empty() {
            let slot = self.ptys.get(pty)?.embedded_ts();
            self.adopt_into(pid, slot, IpcMechanism::Pty);
        }
        Ok(data)
    }

    fn pty_write(&mut self, pid: Pid, pty: PtyId, side: PtySide, bytes: &[u8]) -> SysResult<usize> {
        let sender = self.sender_ts(pid);
        let written = self.ptys.write(pty, side, bytes)?;
        if self.config.overhaul_enabled {
            let slot = self.ptys.embedded_ts_mut(pty)?;
            if embed_on_send(slot, sender) {
                self.audit_propagation_embed(pid, "pty");
            }
        }
        Ok(written)
    }

    /// The adoption half of the protocol: `pid` takes a newer embedded
    /// timestamp from an IPC resource into its `task_struct`, recording the
    /// mechanism in the task's credit chain for decision traces.
    fn adopt_into(&mut self, pid: Pid, slot: Option<Timestamp>, mechanism: IpcMechanism) {
        if !self.config.overhaul_enabled || !self.config.ipc_propagation {
            return;
        }
        let Ok(task) = self.tasks.get_mut(pid) else {
            return;
        };
        if let Some(adopted) = adopt_on_receive(task.raw_interaction(), slot) {
            task.adopt_interaction(adopted, mechanism);
            let now = self.clock.now();
            self.metrics.inc_counter(&format!(
                "overhaul_propagation_hops_total{{mechanism=\"{}\"}}",
                mechanism.as_str()
            ));
            self.tracer.event(
                "ipc.hop",
                now,
                &[
                    ("pid", TraceValue::U64(u64::from(pid.as_raw()))),
                    ("mechanism", TraceValue::Static(mechanism.as_str())),
                    ("adopted_ms", TraceValue::U64(adopted.as_millis())),
                ],
            );
            self.ledger.append(LedgerEntry::event(
                now,
                AuditCategory::InteractionPropagated,
                Some(pid),
                format!("adopted {adopted} via {}", mechanism.as_str()),
            ));
        }
    }

    fn audit_propagation_embed(&mut self, pid: Pid, mechanism: &'static str) {
        let now = self.clock.now();
        self.metrics.inc_counter(&format!(
            "overhaul_propagation_embeds_total{{mechanism=\"{mechanism}\"}}"
        ));
        self.tracer.event(
            "ipc.embed",
            now,
            &[
                ("pid", TraceValue::U64(u64::from(pid.as_raw()))),
                ("mechanism", TraceValue::Static(mechanism)),
            ],
        );
        self.ledger.append(LedgerEntry::event(
            now,
            AuditCategory::InteractionPropagated,
            Some(pid),
            format!("embedded into {mechanism}"),
        ));
    }

    /// Releases the kernel object behind a closed/drained descriptor.
    pub(crate) fn release_description(&mut self, owner: Pid, desc: FileDescription) {
        match desc {
            FileDescription::Regular { .. }
            | FileDescription::Device { .. }
            | FileDescription::MessageQueue { .. } => {}
            FileDescription::PipeRead { pipe } => self.pipes.release_reader(pipe),
            FileDescription::PipeWrite { pipe } => self.pipes.release_writer(pipe),
            FileDescription::Socket { socket, end } => self.sockets.release(socket, end),
            FileDescription::PtyMaster { pty } => {
                self.maybe_hangup_pty(owner, pty, PtySide::Master)
            }
            FileDescription::PtySlave { pty } => self.maybe_hangup_pty(owner, pty, PtySide::Slave),
        }
    }

    fn maybe_hangup_pty(&mut self, _closer: Pid, pty: PtyId, side: PtySide) {
        let still_held = self.tasks.iter().any(|task| {
            task.is_running()
                && task.open_fds().any(|(_, d)| match (d, side) {
                    (FileDescription::PtyMaster { pty: p }, PtySide::Master) => p == pty,
                    (FileDescription::PtySlave { pty: p }, PtySide::Slave) => p == pty,
                    _ => false,
                })
        });
        if !still_held {
            self.ptys.close_side(pty, side);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlink::NetlinkMessage;
    use crate::{KernelConfig, XORG_PATH};
    use overhaul_sim::{Clock, SimDuration};

    /// A kernel with a mic + cam attached and an authenticated X server
    /// connection, the standard fixture for mediation tests.
    struct Fixture {
        kernel: Kernel,
        clock: Clock,
        conn: crate::netlink::ConnId,
        app: Pid,
    }

    fn fixture() -> Fixture {
        let clock = Clock::new();
        let mut kernel = Kernel::new(clock.clone(), KernelConfig::default());
        kernel
            .attach_device(DeviceClass::Microphone, "mic", "/dev/snd/mic0")
            .expect("attach");
        kernel
            .attach_device(DeviceClass::Camera, "cam", "/dev/video0")
            .expect("attach");
        let x = kernel.sys_spawn(Pid::INIT, XORG_PATH).unwrap();
        let conn = kernel.netlink_connect(x).unwrap();
        let app = kernel.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
        Fixture {
            kernel,
            clock,
            conn,
            app,
        }
    }

    impl Fixture {
        /// Simulates the display manager notifying an authentic click on `pid`.
        fn interact(&mut self, pid: Pid) {
            let at = self.clock.now();
            self.kernel
                .netlink_send(
                    self.conn,
                    NetlinkMessage::InteractionNotification { pid, at },
                )
                .unwrap();
        }
    }

    // -------------------------------------------------- Figure 1 flow

    #[test]
    fn device_open_granted_right_after_interaction() {
        let mut f = fixture();
        f.interact(f.app);
        f.clock.advance(SimDuration::from_millis(300));
        let fd = f
            .kernel
            .sys_open(f.app, "/dev/snd/mic0", OpenMode::ReadOnly)
            .unwrap();
        let sample = f.kernel.sys_read(f.app, fd, 64).unwrap();
        assert!(sample.starts_with(b"pcm:"));
    }

    #[test]
    fn device_open_denied_without_interaction() {
        let mut f = fixture();
        assert_eq!(
            f.kernel.sys_open(f.app, "/dev/video0", OpenMode::ReadOnly),
            Err(Errno::Eacces)
        );
    }

    #[test]
    fn device_open_denied_after_delta_expires() {
        let mut f = fixture();
        f.interact(f.app);
        f.clock.advance(SimDuration::from_millis(2500));
        assert_eq!(
            f.kernel
                .sys_open(f.app, "/dev/snd/mic0", OpenMode::ReadOnly),
            Err(Errno::Eacces)
        );
    }

    #[test]
    fn denied_device_open_queues_alert() {
        let mut f = fixture();
        let _ = f.kernel.sys_open(f.app, "/dev/video0", OpenMode::ReadOnly);
        let pushes = f.kernel.netlink_take_pushes(f.conn).unwrap();
        assert_eq!(pushes.len(), 1);
        match &pushes[0] {
            crate::netlink::KernelPush::DisplayAlert(alert) => {
                assert_eq!(alert.op, ResourceOp::Cam);
                assert!(!alert.granted);
                assert_eq!(alert.process_name, "app");
            }
        }
    }

    #[test]
    fn granted_device_open_queues_alert_too() {
        let mut f = fixture();
        f.interact(f.app);
        f.kernel
            .sys_open(f.app, "/dev/snd/mic0", OpenMode::ReadOnly)
            .unwrap();
        let pushes = f.kernel.netlink_take_pushes(f.conn).unwrap();
        assert_eq!(pushes.len(), 1);
        match &pushes[0] {
            crate::netlink::KernelPush::DisplayAlert(alert) => {
                assert!(alert.granted);
                assert_eq!(alert.op, ResourceOp::Mic);
            }
        }
    }

    #[test]
    fn baseline_kernel_does_not_mediate() {
        let clock = Clock::new();
        let mut kernel = Kernel::new(clock, KernelConfig::baseline());
        kernel
            .attach_device(DeviceClass::Microphone, "mic", "/dev/snd/mic0")
            .expect("attach");
        let app = kernel.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
        // No interaction, yet the open succeeds: classic UNIX semantics.
        assert!(kernel
            .sys_open(app, "/dev/snd/mic0", OpenMode::ReadOnly)
            .is_ok());
    }

    #[test]
    fn unmapped_device_node_bypasses_mediation() {
        // The helper-lag gap: a renamed node whose map entry is stale is
        // a plain device to the mediation layer.
        let mut f = fixture();
        f.kernel
            .udev_rename_device_without_helper("/dev/video0", "/dev/video9")
            .unwrap();
        assert!(
            f.kernel
                .sys_open(f.app, "/dev/video9", OpenMode::ReadOnly)
                .is_ok(),
            "stale helper map leaves the device unmediated"
        );
    }

    // -------------------------------------------------- P1: fork/exec

    #[test]
    fn figure3_launcher_spawning_screenshot_tool() {
        let mut f = fixture();
        let run = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/run").unwrap();
        f.interact(run);
        f.clock.advance(SimDuration::from_millis(100));
        let shot = f.kernel.sys_spawn(run, "/usr/bin/shot").unwrap();
        // The child inherits run's interaction, so a device open correlates.
        f.clock.advance(SimDuration::from_millis(100));
        assert!(f
            .kernel
            .sys_open(shot, "/dev/video0", OpenMode::ReadOnly)
            .is_ok());
    }

    #[test]
    fn grandchild_inherits_through_two_forks() {
        let mut f = fixture();
        f.interact(f.app);
        let child = f.kernel.sys_fork(f.app).unwrap();
        let grandchild = f.kernel.sys_fork(child).unwrap();
        assert!(f
            .kernel
            .sys_open(grandchild, "/dev/snd/mic0", OpenMode::ReadOnly)
            .is_ok());
    }

    // -------------------------------------------------- P2: pipes

    #[test]
    fn pipe_propagates_interaction_to_reader() {
        let mut f = fixture();
        let writer = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/writer").unwrap();
        let (r, w) = f.kernel.sys_pipe(writer).unwrap();
        let reader = f.kernel.sys_fork(writer).unwrap();
        f.interact(writer);
        f.kernel.sys_write(writer, w, b"turn on cam").unwrap();
        f.kernel.sys_read(reader, r, 64).unwrap();
        assert!(
            f.kernel
                .sys_open(reader, "/dev/video0", OpenMode::ReadOnly)
                .is_ok(),
            "reader adopted writer's interaction via the pipe"
        );
    }

    #[test]
    fn pipe_does_not_propagate_without_messages() {
        let mut f = fixture();
        let writer = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/writer").unwrap();
        let (r, _w) = f.kernel.sys_pipe(writer).unwrap();
        let reader = f.kernel.sys_fork(writer).unwrap();
        f.interact(writer);
        // Reader never receives data (pipe empty): no propagation.
        assert_eq!(f.kernel.sys_read(reader, r, 64), Err(Errno::Eagain));
        assert_eq!(
            f.kernel.sys_open(reader, "/dev/video0", OpenMode::ReadOnly),
            Err(Errno::Eacces),
            "fork happened before the interaction; no message, no timestamp"
        );
    }

    #[test]
    fn fifo_propagates_between_unrelated_processes() {
        let mut f = fixture();
        f.kernel.sys_mkfifo(Pid::INIT, "/tmp/fifo", 0o666).unwrap();
        let a = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/a").unwrap();
        let b = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/b").unwrap();
        let wfd = f
            .kernel
            .sys_open(a, "/tmp/fifo", OpenMode::WriteOnly)
            .unwrap();
        let rfd = f
            .kernel
            .sys_open(b, "/tmp/fifo", OpenMode::ReadOnly)
            .unwrap();
        f.interact(a);
        f.kernel.sys_write(a, wfd, b"msg").unwrap();
        f.kernel.sys_read(b, rfd, 64).unwrap();
        assert!(f
            .kernel
            .sys_open(b, "/dev/snd/mic0", OpenMode::ReadOnly)
            .is_ok());
    }

    // -------------------------------------------------- P2: sockets

    #[test]
    fn socketpair_propagates_sender_to_receiver() {
        let mut f = fixture();
        let parent = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/browser").unwrap();
        let (a, b) = f.kernel.sys_socketpair(parent).unwrap();
        let child = f.kernel.sys_fork(parent).unwrap();
        f.interact(parent);
        f.kernel.sys_write(parent, a, b"open camera").unwrap();
        f.kernel.sys_read(child, b, 64).unwrap();
        assert!(f
            .kernel
            .sys_open(child, "/dev/video0", OpenMode::ReadOnly)
            .is_ok());
    }

    #[test]
    fn socket_direction_slots_do_not_launder_backwards() {
        let mut f = fixture();
        let parent = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/p").unwrap();
        let (a, b) = f.kernel.sys_socketpair(parent).unwrap();
        let child = f.kernel.sys_fork(parent).unwrap();
        f.interact(parent);
        // Child (no interaction) sends to parent; parent reads. The B->A
        // slot must not carry the parent's own timestamp back to... itself;
        // more importantly the *child* gains nothing by sending.
        f.kernel.sys_write(child, b, b"gimme").unwrap();
        f.kernel.sys_read(parent, a, 64).unwrap();
        assert_eq!(
            f.kernel.sys_open(child, "/dev/video0", OpenMode::ReadOnly),
            Err(Errno::Eacces),
            "sending a message grants the sender nothing"
        );
    }

    // -------------------------------------------------- P2: queues

    #[test]
    fn sysv_msgq_propagates() {
        let mut f = fixture();
        let a = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/a").unwrap();
        let b = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/b").unwrap();
        let q = f.kernel.sys_msgget(a, 0x42).unwrap();
        f.interact(a);
        f.kernel.sys_msgsnd(a, q, 1, b"work").unwrap();
        f.kernel.sys_msgrcv(b, q, 1).unwrap();
        assert!(f
            .kernel
            .sys_open(b, "/dev/snd/mic0", OpenMode::ReadOnly)
            .is_ok());
    }

    #[test]
    fn posix_mq_propagates_via_fd_interface() {
        let mut f = fixture();
        let a = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/a").unwrap();
        let b = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/b").unwrap();
        let qa = f.kernel.sys_mq_open(a, "/jobs").unwrap();
        let qb = f.kernel.sys_mq_open(b, "/jobs").unwrap();
        f.interact(a);
        f.kernel.sys_write(a, qa, b"job").unwrap();
        f.kernel.sys_read(b, qb, 64).unwrap();
        assert!(f
            .kernel
            .sys_open(b, "/dev/video0", OpenMode::ReadOnly)
            .is_ok());
    }

    // -------------------------------------------------- P2: shared memory

    #[test]
    fn figure4_browser_tab_via_shared_memory() {
        let mut f = fixture();
        let browser = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/browser").unwrap();
        let shm = f.kernel.sys_shmget(browser, 0x77, 4).unwrap();
        let browser_vma = f.kernel.sys_shmat(browser, shm).unwrap();
        let tab = f.kernel.sys_spawn(browser, "/usr/bin/browser-tab").unwrap();
        let tab_vma = f.kernel.sys_shmat(tab, shm).unwrap();
        // The tab was spawned before any interaction, and enough time
        // passes that the inherited (absent) timestamp is useless.
        f.clock.advance(SimDuration::from_secs(10));
        f.interact(browser);
        // Browser writes the command into shared memory (faults, embeds),
        // tab reads it (faults, adopts).
        f.kernel
            .sys_shm_write(browser, browser_vma, 0, b"start video")
            .unwrap();
        f.kernel.sys_shm_read(tab, tab_vma, 0, 11).unwrap();
        assert!(f
            .kernel
            .sys_open(tab, "/dev/video0", OpenMode::ReadOnly)
            .is_ok());
    }

    #[test]
    fn shm_accesses_in_wait_window_skip_propagation() {
        let mut f = fixture();
        let a = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/a").unwrap();
        let b = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/b").unwrap();
        let shm = f.kernel.sys_shm_open(a, "/seg", 1).unwrap();
        let va = f.kernel.sys_shmat(a, shm).unwrap();
        let vb = f.kernel.sys_shmat(b, shm).unwrap();
        // Prime both mappings: first accesses fault (no interactions yet).
        f.kernel.sys_shm_write(a, va, 0, b"x").unwrap();
        f.kernel.sys_shm_read(b, vb, 0, 1).unwrap();
        // Now interact; writes inside the open window do NOT embed.
        f.interact(a);
        f.kernel.sys_shm_write(a, va, 0, b"y").unwrap();
        f.kernel.sys_shm_read(b, vb, 0, 1).unwrap();
        assert_eq!(
            f.kernel.sys_open(b, "/dev/video0", OpenMode::ReadOnly),
            Err(Errno::Eacces),
            "wait-window accesses are the documented propagation gap"
        );
        // After the window expires and the kernel re-arms, propagation works.
        f.clock.advance(SimDuration::from_millis(600));
        f.kernel.tick();
        f.interact(a);
        f.kernel.sys_shm_write(a, va, 0, b"z").unwrap();
        f.kernel.sys_shm_read(b, vb, 0, 1).unwrap();
        assert!(f
            .kernel
            .sys_open(b, "/dev/video0", OpenMode::ReadOnly)
            .is_ok());
    }

    #[test]
    fn shmdt_by_foreign_process_rejected() {
        let mut f = fixture();
        let a = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/a").unwrap();
        let b = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/b").unwrap();
        let shm = f.kernel.sys_shmget(a, 1, 1).unwrap();
        let va = f.kernel.sys_shmat(a, shm).unwrap();
        assert_eq!(f.kernel.sys_shmdt(b, va), Err(Errno::Eperm));
    }

    // -------------------------------------------------- P2: pseudo-terminals

    #[test]
    fn cli_workflow_terminal_shell_tool() {
        // xterm (interacted) writes the command to the pty master; bash
        // reads from the slave and adopts the timestamp; the tool bash
        // spawns inherits it via fork and may open the mic.
        let mut f = fixture();
        let xterm = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/xterm").unwrap();
        let (master, slave) = f.kernel.sys_openpty(xterm).unwrap();
        let bash = f.kernel.sys_fork(xterm).unwrap();
        f.interact(xterm);
        f.kernel.sys_write(xterm, master, b"arecord\n").unwrap();
        f.kernel.sys_read(bash, slave, 64).unwrap();
        let arecord = f.kernel.sys_spawn(bash, "/usr/bin/arecord").unwrap();
        assert!(f
            .kernel
            .sys_open(arecord, "/dev/snd/mic0", OpenMode::ReadOnly)
            .is_ok());
    }

    #[test]
    fn background_shell_job_without_input_is_denied() {
        let mut f = fixture();
        let xterm = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/xterm").unwrap();
        let (_master, _slave) = f.kernel.sys_openpty(xterm).unwrap();
        let bash = f.kernel.sys_fork(xterm).unwrap();
        // No terminal traffic after interaction expires.
        f.clock.advance(SimDuration::from_secs(30));
        let job = f.kernel.sys_spawn(bash, "/usr/bin/cron-grabber").unwrap();
        assert_eq!(
            f.kernel.sys_open(job, "/dev/video0", OpenMode::ReadOnly),
            Err(Errno::Eacces)
        );
    }

    // -------------------------------------------------- ptrace hardening

    #[test]
    fn traced_process_cannot_open_devices() {
        let mut f = fixture();
        f.interact(f.app);
        let child = f.kernel.sys_fork(f.app).unwrap();
        f.kernel.sys_ptrace_attach(f.app, child).unwrap();
        assert_eq!(
            f.kernel
                .sys_open(child, "/dev/snd/mic0", OpenMode::ReadOnly),
            Err(Errno::Eacces),
            "frozen permissions while traced"
        );
        f.kernel.sys_ptrace_detach(f.app, child).unwrap();
        assert!(f
            .kernel
            .sys_open(child, "/dev/snd/mic0", OpenMode::ReadOnly)
            .is_ok());
    }

    #[test]
    fn traced_process_does_not_propagate_timestamps() {
        let mut f = fixture();
        let parent = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/p").unwrap();
        let (r, w) = f.kernel.sys_pipe(parent).unwrap();
        let child = f.kernel.sys_fork(parent).unwrap();
        f.clock.advance(SimDuration::from_secs(10));
        f.interact(child);
        f.kernel.sys_ptrace_attach(parent, child).unwrap();
        f.kernel.sys_write(child, w, b"data").unwrap();
        f.kernel.sys_read(parent, r, 64).unwrap();
        assert_eq!(
            f.kernel.sys_open(parent, "/dev/video0", OpenMode::ReadOnly),
            Err(Errno::Eacces),
            "a traced child's timestamp must not flow out"
        );
    }

    // -------------------------------------------------- lifecycle hygiene

    #[test]
    fn exit_releases_pipe_ends() {
        let mut f = fixture();
        let a = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/a").unwrap();
        let (r, w) = f.kernel.sys_pipe(a).unwrap();
        let b = f.kernel.sys_fork(a).unwrap();
        // a closes its copies; b holds the only remaining refs.
        f.kernel.sys_close(a, r).unwrap();
        f.kernel.sys_close(a, w).unwrap();
        f.kernel.sys_exit(b, 0).unwrap();
        // All refs gone: the pipe object is freed.
        assert!(f.kernel.pipes.is_empty());
    }

    #[test]
    fn close_decrements_fork_bumped_refcounts() {
        let mut f = fixture();
        let a = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/a").unwrap();
        let (r, w) = f.kernel.sys_pipe(a).unwrap();
        let b = f.kernel.sys_fork(a).unwrap();
        f.kernel.sys_close(b, w).unwrap();
        f.kernel.sys_close(a, w).unwrap();
        // Writers all closed: reader sees EOF.
        assert_eq!(f.kernel.sys_read(a, r, 1).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn exit_hangs_up_pty_side_when_last_holder_dies() {
        let mut f = fixture();
        let xterm = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/xterm").unwrap();
        let (master, slave) = f.kernel.sys_openpty(xterm).unwrap();
        let bash = f.kernel.sys_fork(xterm).unwrap();
        // xterm drops its slave copy; bash still holds one.
        f.kernel.sys_close(xterm, slave).unwrap();
        f.kernel.sys_write(xterm, master, b"hi").unwrap();
        f.kernel.sys_exit(bash, 0).unwrap();
        // Slave side now fully closed: master write breaks.
        assert_eq!(f.kernel.sys_write(xterm, master, b"x"), Err(Errno::Epipe));
    }

    #[test]
    fn read_write_on_wrong_pipe_end_is_ebadf() {
        let mut f = fixture();
        let a = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/a").unwrap();
        let (r, w) = f.kernel.sys_pipe(a).unwrap();
        assert_eq!(f.kernel.sys_read(a, w, 1), Err(Errno::Ebadf));
        assert_eq!(f.kernel.sys_write(a, r, b"x"), Err(Errno::Ebadf));
    }

    #[test]
    fn regular_file_io_and_bonnie_style_cycle() {
        let mut f = fixture();
        let fd = f.kernel.sys_creat(f.app, "/tmp/data", 0o644).unwrap();
        f.kernel.sys_write(f.app, fd, b"payload").unwrap();
        assert_eq!(f.kernel.sys_read(f.app, fd, 64).unwrap(), b"payload");
        f.kernel.sys_close(f.app, fd).unwrap();
        assert_eq!(f.kernel.sys_stat(f.app, "/tmp/data").unwrap().size, 7);
        f.kernel.sys_unlink(f.app, "/tmp/data").unwrap();
        assert_eq!(f.kernel.sys_stat(f.app, "/tmp/data"), Err(Errno::Enoent));
    }

    #[test]
    fn unlink_respects_ownership() {
        let mut f = fixture();
        let alice = f
            .kernel
            .sys_spawn_as(Pid::INIT, "/usr/bin/app", Uid::from_raw(1000))
            .unwrap();
        let bob = f
            .kernel
            .sys_spawn_as(Pid::INIT, "/usr/bin/app", Uid::from_raw(1001))
            .unwrap();
        f.kernel.sys_creat(alice, "/tmp/alice.txt", 0o644).unwrap();
        assert_eq!(
            f.kernel.sys_unlink(bob, "/tmp/alice.txt"),
            Err(Errno::Eacces)
        );
        assert!(f.kernel.sys_unlink(alice, "/tmp/alice.txt").is_ok());
    }

    #[test]
    fn open_directory_is_eisdir() {
        let mut f = fixture();
        assert_eq!(
            f.kernel.sys_open(f.app, "/tmp", OpenMode::ReadOnly),
            Err(Errno::Eisdir)
        );
    }

    #[test]
    fn interaction_expiry_is_per_process_not_global() {
        let mut f = fixture();
        let other = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/other").unwrap();
        f.interact(f.app);
        assert_eq!(
            f.kernel
                .sys_open(other, "/dev/snd/mic0", OpenMode::ReadOnly),
            Err(Errno::Eacces),
            "another process's interaction must not leak"
        );
        assert!(f
            .kernel
            .sys_open(f.app, "/dev/snd/mic0", OpenMode::ReadOnly)
            .is_ok());
    }

    #[test]
    fn dup_bumps_pipe_refcounts() {
        let mut f = fixture();
        let a = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/a").unwrap();
        let (r, w) = f.kernel.sys_pipe(a).unwrap();
        let w2 = f.kernel.sys_dup(a, w).unwrap();
        f.kernel.sys_close(a, w).unwrap();
        // The duplicate keeps the write side alive.
        f.kernel.sys_write(a, w2, b"x").unwrap();
        assert_eq!(f.kernel.sys_read(a, r, 1).unwrap(), b"x");
        f.kernel.sys_close(a, w2).unwrap();
        assert_eq!(
            f.kernel.sys_read(a, r, 1).unwrap(),
            Vec::<u8>::new(),
            "EOF after both writers close"
        );
    }

    #[test]
    fn kill_respects_uid_boundaries() {
        let mut f = fixture();
        let alice = f
            .kernel
            .sys_spawn_as(Pid::INIT, "/usr/bin/a", Uid::from_raw(1000))
            .unwrap();
        let bob = f
            .kernel
            .sys_spawn_as(Pid::INIT, "/usr/bin/b", Uid::from_raw(1001))
            .unwrap();
        let alice2 = f
            .kernel
            .sys_spawn_as(Pid::INIT, "/usr/bin/a2", Uid::from_raw(1000))
            .unwrap();
        assert_eq!(f.kernel.sys_kill(alice, bob), Err(Errno::Eperm));
        assert!(f.kernel.sys_kill(alice, alice2).is_ok());
        assert!(!f.kernel.tasks().is_running(alice2));
        // Root kills anyone.
        assert!(f.kernel.sys_kill(Pid::INIT, bob).is_ok());
    }

    #[test]
    fn propagation_audited() {
        let mut f = fixture();
        let a = f.kernel.sys_spawn(Pid::INIT, "/usr/bin/a").unwrap();
        let (r, w) = f.kernel.sys_pipe(a).unwrap();
        let b = f.kernel.sys_fork(a).unwrap();
        f.interact(a);
        f.kernel.sys_write(a, w, b"m").unwrap();
        f.kernel.sys_read(b, r, 1).unwrap();
        assert!(f.kernel.audit().count(AuditCategory::InteractionPropagated) >= 2);
    }
}
