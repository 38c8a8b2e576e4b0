//! ptrace hardening (§IV-B, *Processes isolation and introspection*).
//!
//! Debugging facilities could let an attacker inject code into a process
//! that legitimately holds interaction permissions. Linux already restricts
//! `ptrace` to descendants; Overhaul goes further: "we provide even stricter
//! security by temporarily disabling all permissions for a debugged process"
//! — which "prevents parent processes from tracing their own children (to)
//! subvert attacks where a malicious program could launch another legitimate
//! executable, and then inject code into it". The hardening is on by
//! default and toggleable by the superuser through a procfs node.

use overhaul_sim::Pid;

use crate::error::{Errno, SysResult};
use crate::process::ProcessTable;

/// ptrace policy state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtracePolicy {
    /// When `true` (default), attaching freezes the tracee's interaction
    /// permissions for the duration of the trace.
    pub hardening_enabled: bool,
}

impl Default for PtracePolicy {
    fn default() -> Self {
        PtracePolicy {
            hardening_enabled: true,
        }
    }
}

impl PtracePolicy {
    /// `PTRACE_ATTACH`: `tracer` attaches to `tracee`.
    ///
    /// The tracee must be a transitive descendant of the tracer (the
    /// baseline Linux-style restriction the paper relies on: unrelated
    /// processes "cannot manipulate each other's state"). Under hardening
    /// the tracee's permissions are frozen until detach.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] for dead processes, [`Errno::Eperm`] for
    /// non-descendants or an already-traced tracee.
    pub fn attach(&self, tasks: &mut ProcessTable, tracer: Pid, tracee: Pid) -> SysResult<()> {
        if !tasks.is_running(tracer) || !tasks.is_running(tracee) {
            return Err(Errno::Esrch);
        }
        if !tasks.is_descendant_of(tracee, tracer) {
            return Err(Errno::Eperm);
        }
        {
            let target = tasks.get(tracee)?;
            if target.traced_by().is_some() {
                return Err(Errno::Eperm);
            }
        }
        let target = tasks.get_mut(tracee)?;
        target.set_traced_by(Some(tracer));
        if self.hardening_enabled {
            target.set_permissions_frozen(true);
        }
        Ok(())
    }

    /// `PTRACE_DETACH`: `tracer` detaches from `tracee`, unfreezing its
    /// permissions.
    ///
    /// # Errors
    ///
    /// [`Errno::Esrch`] if the tracee is gone, [`Errno::Eperm`] if `tracer`
    /// is not the attached tracer.
    pub fn detach(&self, tasks: &mut ProcessTable, tracer: Pid, tracee: Pid) -> SysResult<()> {
        let target = tasks.get_mut(tracee)?;
        if target.traced_by() != Some(tracer) {
            return Err(Errno::Eperm);
        }
        target.set_traced_by(None);
        target.set_permissions_frozen(false);
        Ok(())
    }
}

mod pack {
    //! Snapshot codec for the ptrace policy.

    use overhaul_sim::impl_pack;

    use super::PtracePolicy;

    impl_pack!(PtracePolicy { hardening_enabled });
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_sim::Timestamp;

    fn setup() -> (PtracePolicy, ProcessTable, Pid, Pid) {
        let mut tasks = ProcessTable::new();
        let parent = tasks.fork(Pid::INIT).unwrap();
        let child = tasks.fork(parent).unwrap();
        (PtracePolicy::default(), tasks, parent, child)
    }

    #[test]
    fn attach_freezes_child_permissions() {
        let (policy, mut tasks, parent, child) = setup();
        tasks
            .get_mut(child)
            .unwrap()
            .observe_interaction(Timestamp::from_millis(10));
        policy.attach(&mut tasks, parent, child).unwrap();
        assert_eq!(
            tasks.get(child).unwrap().interaction(),
            None,
            "a traced process must lose its permissions"
        );
    }

    #[test]
    fn detach_restores_permissions() {
        let (policy, mut tasks, parent, child) = setup();
        tasks
            .get_mut(child)
            .unwrap()
            .observe_interaction(Timestamp::from_millis(10));
        policy.attach(&mut tasks, parent, child).unwrap();
        policy.detach(&mut tasks, parent, child).unwrap();
        assert_eq!(
            tasks.get(child).unwrap().interaction(),
            Some(Timestamp::from_millis(10))
        );
    }

    #[test]
    fn non_descendant_attach_rejected() {
        let (policy, mut tasks, _parent, child) = setup();
        let stranger = tasks.fork(Pid::INIT).unwrap();
        assert_eq!(
            policy.attach(&mut tasks, stranger, child),
            Err(Errno::Eperm)
        );
    }

    #[test]
    fn cannot_attach_twice() {
        let (policy, mut tasks, parent, child) = setup();
        policy.attach(&mut tasks, parent, child).unwrap();
        let grandparent = Pid::INIT;
        assert_eq!(
            policy.attach(&mut tasks, grandparent, child),
            Err(Errno::Eperm)
        );
    }

    #[test]
    fn hardening_off_keeps_permissions_live() {
        let (_, mut tasks, parent, child) = setup();
        let policy = PtracePolicy {
            hardening_enabled: false,
        };
        tasks
            .get_mut(child)
            .unwrap()
            .observe_interaction(Timestamp::from_millis(10));
        policy.attach(&mut tasks, parent, child).unwrap();
        assert_eq!(
            tasks.get(child).unwrap().interaction(),
            Some(Timestamp::from_millis(10)),
            "with hardening disabled only the baseline restriction applies"
        );
    }

    #[test]
    fn detach_by_wrong_tracer_rejected() {
        let (policy, mut tasks, parent, child) = setup();
        policy.attach(&mut tasks, parent, child).unwrap();
        assert_eq!(
            policy.detach(&mut tasks, Pid::INIT, child),
            Err(Errno::Eperm)
        );
    }

    #[test]
    fn dead_process_attach_is_esrch() {
        let (policy, mut tasks, parent, child) = setup();
        tasks.exit(child, 0).unwrap();
        assert_eq!(policy.attach(&mut tasks, parent, child), Err(Errno::Esrch));
    }
}
