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

/// `PTRACE_ATTACH`: `tracer` attaches to `tracee`.
///
/// The tracee must be a transitive descendant of the tracer (the
/// baseline Linux-style restriction the paper relies on: unrelated
/// processes "cannot manipulate each other's state"). Under `hardening`
/// (the kernel's [`crate::KernelConfig::ptrace_hardening`]) the tracee's
/// permissions are frozen until detach.
///
/// # Errors
///
/// [`Errno::Esrch`] for dead processes, [`Errno::Eperm`] for
/// non-descendants or an already-traced tracee.
pub fn attach(
    tasks: &mut ProcessTable,
    tracer: Pid,
    tracee: Pid,
    hardening: bool,
) -> SysResult<()> {
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
    if hardening {
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
pub fn detach(tasks: &mut ProcessTable, tracer: Pid, tracee: Pid) -> SysResult<()> {
    let target = tasks.get_mut(tracee)?;
    if target.traced_by() != Some(tracer) {
        return Err(Errno::Eperm);
    }
    target.set_traced_by(None);
    target.set_permissions_frozen(false);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_sim::Timestamp;

    fn setup() -> (ProcessTable, Pid, Pid) {
        let mut tasks = ProcessTable::new();
        let parent = tasks.fork(Pid::INIT).unwrap();
        let child = tasks.fork(parent).unwrap();
        (tasks, parent, child)
    }

    #[test]
    fn attach_freezes_child_permissions() {
        let (mut tasks, parent, child) = setup();
        tasks
            .get_mut(child)
            .unwrap()
            .observe_interaction(Timestamp::from_millis(10));
        attach(&mut tasks, parent, child, true).unwrap();
        assert_eq!(
            tasks.get(child).unwrap().interaction(),
            None,
            "a traced process must lose its permissions"
        );
    }

    #[test]
    fn detach_restores_permissions() {
        let (mut tasks, parent, child) = setup();
        tasks
            .get_mut(child)
            .unwrap()
            .observe_interaction(Timestamp::from_millis(10));
        attach(&mut tasks, parent, child, true).unwrap();
        detach(&mut tasks, parent, child).unwrap();
        assert_eq!(
            tasks.get(child).unwrap().interaction(),
            Some(Timestamp::from_millis(10))
        );
    }

    #[test]
    fn non_descendant_attach_rejected() {
        let (mut tasks, _parent, child) = setup();
        let stranger = tasks.fork(Pid::INIT).unwrap();
        assert_eq!(attach(&mut tasks, stranger, child, true), Err(Errno::Eperm));
    }

    #[test]
    fn cannot_attach_twice() {
        let (mut tasks, parent, child) = setup();
        attach(&mut tasks, parent, child, true).unwrap();
        let grandparent = Pid::INIT;
        assert_eq!(
            attach(&mut tasks, grandparent, child, true),
            Err(Errno::Eperm)
        );
    }

    #[test]
    fn hardening_off_keeps_permissions_live() {
        let (mut tasks, parent, child) = setup();
        tasks
            .get_mut(child)
            .unwrap()
            .observe_interaction(Timestamp::from_millis(10));
        attach(&mut tasks, parent, child, false).unwrap();
        assert_eq!(
            tasks.get(child).unwrap().interaction(),
            Some(Timestamp::from_millis(10)),
            "with hardening disabled only the baseline restriction applies"
        );
    }

    #[test]
    fn detach_by_wrong_tracer_rejected() {
        let (mut tasks, parent, child) = setup();
        attach(&mut tasks, parent, child, true).unwrap();
        assert_eq!(detach(&mut tasks, Pid::INIT, child), Err(Errno::Eperm));
    }

    #[test]
    fn dead_process_attach_is_esrch() {
        let (mut tasks, parent, child) = setup();
        tasks.exit(child, 0).unwrap();
        assert_eq!(attach(&mut tasks, parent, child, true), Err(Errno::Esrch));
    }
}
