//! Process table: creation, exit, reaping, and ancestry queries.
//!
//! Overhaul leans on two properties of the Linux process model that this
//! table reproduces: `fork`/`clone` duplicate the `task_struct` (so the
//! interaction timestamp propagates to children — policy **P1**), and the
//! parent/child tree is what constrains `ptrace` ("do not allow attaching to
//! processes that are not direct descendants of the debugging process").
//!
//! Storage is a generation-checked [`Slab`] arena plus a dense
//! pid-indexed side table (`by_pid`), so the decide hot path resolves a pid
//! to a task with two array indexes instead of a `BTreeMap` walk. Pids are
//! sequential and never reused, which keeps `by_pid` a straight `Vec`; a
//! reaped pid leaves a dead entry behind whose generation check fails, so a
//! stale [`SlotId`] can never alias a later task. The snapshot codec writes
//! the tasks in pid order and rebuilds the arena on decode.

use overhaul_sim::{Pid, Slab, SlotId, Uid};

use crate::error::{Errno, SysResult};
use crate::task::{FileDescription, Task, TaskState};

/// Sentinel for a pid that has no live-or-zombie task. Index `u32::MAX`
/// can never be a real slot (the arena would need 4 billion live tasks).
const DEAD: SlotId = SlotId::new(u32::MAX, u32::MAX);

/// ```
/// use overhaul_kernel::process::ProcessTable;
/// use overhaul_sim::{Pid, Timestamp};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut tasks = ProcessTable::new();
/// let parent = tasks.fork(Pid::INIT)?;
/// tasks.get_mut(parent)?.observe_interaction(Timestamp::from_millis(7));
/// // P1: the child inherits the parent's interaction timestamp.
/// let child = tasks.fork(parent)?;
/// assert_eq!(tasks.get(child)?.interaction(), Some(Timestamp::from_millis(7)));
/// # Ok(())
/// # }
/// ```
/// The table of all simulated processes.
#[derive(Debug, Clone)]
pub struct ProcessTable {
    arena: Slab<Task>,
    /// Indexed by raw pid; `DEAD` for pids never issued or already reaped.
    by_pid: Vec<SlotId>,
    next_pid: u32,
}

impl Default for ProcessTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ProcessTable {
    /// Creates a table containing only `init` (pid 1, root,
    /// `/sbin/init`).
    pub fn new() -> Self {
        let mut table = ProcessTable {
            arena: Slab::new(),
            by_pid: Vec::new(),
            next_pid: 2,
        };
        table.install(Task::new(Pid::INIT, None, Uid::ROOT, "/sbin/init"));
        table
    }

    /// Inserts `task` into the arena and wires up the pid index.
    fn install(&mut self, task: Task) -> SlotId {
        let pid = task.pid().as_raw() as usize;
        let id = self.arena.insert(task);
        if self.by_pid.len() <= pid {
            self.by_pid.resize(pid + 1, DEAD);
        }
        self.by_pid[pid] = id;
        id
    }

    /// Resolves a pid to its live-or-zombie arena slot. This is the decide
    /// hot path's entire lookup: one bounds-checked index plus the arena's
    /// generation check.
    #[inline]
    pub fn slot_of(&self, pid: Pid) -> Option<SlotId> {
        let id = *self.by_pid.get(pid.as_raw() as usize)?;
        if id == DEAD {
            return None;
        }
        debug_assert!(self.arena.contains(id));
        Some(id)
    }

    /// Direct slot access (generation-checked).
    #[inline]
    pub fn get_by_slot(&self, id: SlotId) -> Option<&Task> {
        self.arena.get(id)
    }

    /// Resolves `pid` to `(slot, task)` in one step.
    #[inline]
    pub fn slot_entry(&self, pid: Pid) -> Option<(SlotId, &Task)> {
        let id = self.slot_of(pid)?;
        Some((id, self.arena.get(id)?))
    }

    /// Number of arena slots ever allocated (live + free); per-task side
    /// tables (like the verdict cache) size themselves off this.
    pub fn slot_capacity(&self) -> usize {
        self.arena.slot_capacity()
    }

    /// Looks up a live-or-zombie task.
    pub fn get(&self, pid: Pid) -> SysResult<&Task> {
        self.slot_of(pid)
            .and_then(|id| self.arena.get(id))
            .ok_or(Errno::Esrch)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, pid: Pid) -> SysResult<&mut Task> {
        match self.slot_of(pid) {
            Some(id) => self.arena.get_mut(id).ok_or(Errno::Esrch),
            None => Err(Errno::Esrch),
        }
    }

    /// Whether `pid` exists and is running.
    pub fn is_running(&self, pid: Pid) -> bool {
        self.get(pid).map(Task::is_running).unwrap_or(false)
    }

    /// Iterates over all tasks in pid order.
    pub fn iter(&self) -> impl Iterator<Item = &Task> {
        self.by_pid
            .iter()
            .filter(|&&id| id != DEAD)
            .filter_map(|&id| self.arena.get(id))
    }

    /// Number of tasks (live + zombie).
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether only init exists.
    pub fn is_empty(&self) -> bool {
        self.arena.len() <= 1
    }

    /// Creates a brand-new process that is a child of `parent` running a
    /// fresh image at `exe_path`. Equivalent to `fork` + `execve` for
    /// harness convenience; the interaction timestamp still flows from the
    /// parent per **P1**, and the uid is inherited.
    pub fn spawn(&mut self, parent: Pid, exe_path: &str) -> SysResult<Pid> {
        let child = self.fork(parent)?;
        self.get_mut(child)?.exec(exe_path);
        Ok(child)
    }

    /// `fork(2)`: duplicates `parent` into a new child, copying the fd table
    /// and the interaction timestamp (**P1**).
    pub fn fork(&mut self, parent: Pid) -> SysResult<Pid> {
        let child_pid = Pid::from_raw(self.next_pid);
        let parent_task = self.get(parent)?;
        if !parent_task.is_running() {
            return Err(Errno::Esrch);
        }
        let child = parent_task.fork_into(child_pid);
        self.next_pid += 1;
        self.install(child);
        self.get_mut(parent)
            .expect("parent checked above")
            .add_child(child_pid);
        Ok(child_pid)
    }

    /// `execve(2)`: replaces the image of `pid`. The `task_struct` — and so
    /// the interaction timestamp — is reused.
    pub fn exec(&mut self, pid: Pid, exe_path: &str) -> SysResult<()> {
        let task = self.get_mut(pid)?;
        if !task.is_running() {
            return Err(Errno::Esrch);
        }
        task.exec(exe_path);
        Ok(())
    }

    /// `exit(2)`: marks `pid` a zombie, reparents its children to init, and
    /// returns the drained file descriptions so the kernel can release the
    /// backing objects (pipes, sockets, devices...).
    pub fn exit(&mut self, pid: Pid, code: i32) -> SysResult<Vec<FileDescription>> {
        if pid == Pid::INIT {
            return Err(Errno::Eperm);
        }
        let (drained, children) = {
            let task = self.get_mut(pid)?;
            if !task.is_running() {
                return Err(Errno::Esrch);
            }
            task.set_zombie(code);
            task.set_traced_by(None);
            (task.drain_fds(), task.children().to_vec())
        };
        for child in children {
            if let Ok(child_task) = self.get_mut(child) {
                child_task.set_ppid(Some(Pid::INIT));
            }
            self.get_mut(pid).expect("exists").remove_child(child);
            self.get_mut(Pid::INIT)
                .expect("init exists")
                .add_child(child);
        }
        Ok(drained)
    }

    /// `waitpid(2)`: reaps a zombie child of `parent`, returning its exit
    /// code, or [`Errno::Eagain`] if the child is still running.
    pub fn wait(&mut self, parent: Pid, child: Pid) -> SysResult<i32> {
        let parent_children = self.get(parent)?.children().to_vec();
        if !parent_children.contains(&child) {
            return Err(Errno::Esrch);
        }
        match self.get(child)?.state() {
            TaskState::Running => Err(Errno::Eagain),
            TaskState::Zombie { code } => {
                if let Some(id) = self.slot_of(child) {
                    self.arena.remove(id);
                    self.by_pid[child.as_raw() as usize] = DEAD;
                }
                self.get_mut(parent)?.remove_child(child);
                Ok(code)
            }
        }
    }

    /// Whether `candidate` is a (transitive) descendant of `ancestor`.
    pub fn is_descendant_of(&self, candidate: Pid, ancestor: Pid) -> bool {
        let mut cursor = candidate;
        // Bounded walk to guard against (impossible) ppid cycles.
        for _ in 0..self.arena.len() + 1 {
            match self.get(cursor).ok().and_then(Task::ppid) {
                Some(ppid) if ppid == ancestor => return true,
                Some(ppid) => cursor = ppid,
                None => return false,
            }
        }
        false
    }
}

mod pack {
    //! Snapshot codec for the process table: a `u64` task count, the
    //! tasks in ascending pid order, then `next_pid`. Each task carries
    //! its own pid, so no separate key is written. Arena slots,
    //! generations, and the pid index are derived state rebuilt on decode.

    use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};
    use overhaul_sim::Slab;

    use super::ProcessTable;
    use crate::task::Task;

    impl Pack for ProcessTable {
        fn pack(&self, enc: &mut Enc) {
            enc.put_u64(self.arena.len() as u64);
            for task in self.iter() {
                task.pack(enc);
            }
            enc.put_u32(self.next_pid);
        }

        fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
            let tasks = Vec::<Task>::unpack(dec)?;
            let next_pid = dec.take_u32()?;
            // Validate every pid before installing any, so the pid index
            // only ever grows to a pid below `next_pid`.
            if tasks.windows(2).any(|w| w[0].pid() >= w[1].pid()) {
                return Err(SnapshotError::BadValue("process table pid order"));
            }
            // Pids are never reused: the next fork must not re-issue one.
            if tasks.last().is_some_and(|t| t.pid().as_raw() >= next_pid) {
                return Err(SnapshotError::BadValue("process table next pid"));
            }
            let mut table = ProcessTable {
                arena: Slab::new(),
                by_pid: Vec::new(),
                next_pid,
            };
            for task in tasks {
                table.install(task);
            }
            Ok(table)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_sim::Timestamp;

    #[test]
    fn new_table_has_init() {
        let table = ProcessTable::new();
        assert!(table.is_running(Pid::INIT));
        assert_eq!(table.get(Pid::INIT).unwrap().exe_path(), "/sbin/init");
    }

    #[test]
    fn fork_creates_child_with_parent_link() {
        let mut table = ProcessTable::new();
        let child = table.fork(Pid::INIT).unwrap();
        assert_eq!(table.get(child).unwrap().ppid(), Some(Pid::INIT));
        assert!(table.get(Pid::INIT).unwrap().children().contains(&child));
    }

    #[test]
    fn fork_propagates_interaction_p1() {
        let mut table = ProcessTable::new();
        let parent = table.fork(Pid::INIT).unwrap();
        table
            .get_mut(parent)
            .unwrap()
            .observe_interaction(Timestamp::from_millis(77));
        let child = table.fork(parent).unwrap();
        assert_eq!(
            table.get(child).unwrap().interaction(),
            Some(Timestamp::from_millis(77))
        );
    }

    #[test]
    fn fork_of_dead_parent_fails() {
        let mut table = ProcessTable::new();
        let p = table.fork(Pid::INIT).unwrap();
        table.exit(p, 0).unwrap();
        assert_eq!(table.fork(p), Err(Errno::Esrch));
    }

    #[test]
    fn exit_reparents_children_to_init() {
        let mut table = ProcessTable::new();
        let parent = table.fork(Pid::INIT).unwrap();
        let child = table.fork(parent).unwrap();
        table.exit(parent, 0).unwrap();
        assert_eq!(table.get(child).unwrap().ppid(), Some(Pid::INIT));
        assert!(table.get(Pid::INIT).unwrap().children().contains(&child));
    }

    #[test]
    fn init_cannot_exit() {
        let mut table = ProcessTable::new();
        assert_eq!(table.exit(Pid::INIT, 0), Err(Errno::Eperm));
    }

    #[test]
    fn wait_reaps_zombie() {
        let mut table = ProcessTable::new();
        let child = table.fork(Pid::INIT).unwrap();
        assert_eq!(table.wait(Pid::INIT, child), Err(Errno::Eagain));
        table.exit(child, 42).unwrap();
        assert_eq!(table.wait(Pid::INIT, child), Ok(42));
        assert!(table.get(child).is_err(), "reaped task is gone");
    }

    #[test]
    fn wait_rejects_non_child() {
        let mut table = ProcessTable::new();
        let a = table.fork(Pid::INIT).unwrap();
        let b = table.fork(a).unwrap();
        assert_eq!(table.wait(Pid::INIT, b), Err(Errno::Esrch));
    }

    #[test]
    fn descendant_query_walks_tree() {
        let mut table = ProcessTable::new();
        let a = table.fork(Pid::INIT).unwrap();
        let b = table.fork(a).unwrap();
        let c = table.fork(b).unwrap();
        assert!(table.is_descendant_of(c, a));
        assert!(table.is_descendant_of(c, Pid::INIT));
        assert!(!table.is_descendant_of(a, c));
        assert!(
            !table.is_descendant_of(a, a),
            "a process is not its own descendant"
        );
    }

    #[test]
    fn spawn_is_fork_plus_exec() {
        let mut table = ProcessTable::new();
        let launcher = table.fork(Pid::INIT).unwrap();
        table
            .get_mut(launcher)
            .unwrap()
            .observe_interaction(Timestamp::from_millis(5));
        let shot = table.spawn(launcher, "/usr/bin/shot").unwrap();
        let task = table.get(shot).unwrap();
        assert_eq!(task.name(), "shot");
        assert_eq!(
            task.interaction(),
            Some(Timestamp::from_millis(5)),
            "figure 3: launcher's interaction must reach the spawned program"
        );
    }

    #[test]
    fn exit_drains_fd_table() {
        let mut table = ProcessTable::new();
        let p = table.fork(Pid::INIT).unwrap();
        table
            .get_mut(p)
            .unwrap()
            .install_fd(FileDescription::Regular {
                inode: crate::vfs::InodeId::from_raw(9),
            });
        let drained = table.exit(p, 0).unwrap();
        assert_eq!(drained.len(), 1);
    }

    #[test]
    fn slot_of_reaped_pid_is_dead_and_slot_is_reused_with_new_generation() {
        let mut table = ProcessTable::new();
        let a = table.fork(Pid::INIT).unwrap();
        let a_slot = table.slot_of(a).unwrap();
        table.exit(a, 0).unwrap();
        assert!(
            table.slot_of(a).is_some(),
            "zombies still resolve until reaped"
        );
        table.wait(Pid::INIT, a).unwrap();
        assert_eq!(table.slot_of(a), None);
        assert!(table.get_by_slot(a_slot).is_none(), "stale slot id is dead");

        let b = table.fork(Pid::INIT).unwrap();
        let b_slot = table.slot_of(b).unwrap();
        assert_eq!(b_slot.index(), a_slot.index(), "freed slot is reused");
        assert_ne!(b_slot.gen(), a_slot.gen(), "with a bumped generation");
        assert!(table.get_by_slot(a_slot).is_none());
        assert_eq!(table.get_by_slot(b_slot).unwrap().pid(), b);
    }

    #[test]
    fn decode_rejects_a_next_pid_at_or_below_a_live_pid() {
        use overhaul_sim::snapshot::{Dec, Enc, Pack, SnapshotError};

        let mut table = ProcessTable::new();
        let a = table.fork(Pid::INIT).unwrap();
        let b = table.spawn(a, "/usr/bin/cam").unwrap();
        table.exit(b, 3).unwrap();
        let mut enc = Enc::new();
        table.pack(&mut enc);
        let bytes = enc.into_bytes();

        let restored = ProcessTable::unpack(&mut Dec::new(&bytes)).unwrap();
        assert_eq!((restored.len(), restored.next_pid), (3, 4));
        assert!(restored.is_running(a) && !restored.is_running(b));

        // `next_pid` is the trailing u32: point it back at a live pid.
        for next_pid in [2u32, 3] {
            let mut evil = bytes.clone();
            let at = evil.len() - 4;
            evil[at..].copy_from_slice(&next_pid.to_le_bytes());
            assert_eq!(
                ProcessTable::unpack(&mut Dec::new(&evil)).err(),
                Some(SnapshotError::BadValue("process table next pid")),
                "next_pid {next_pid}"
            );
        }
    }
}
