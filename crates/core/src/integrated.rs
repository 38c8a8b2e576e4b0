//! Kernel-integrated display-manager wiring (§III).
//!
//! The paper's design assumes a userspace display manager and therefore
//! needs the authenticated netlink channel; it notes that "different OS
//! designs can allow display managers integrated into the kernel, which
//! would alleviate the need for some of the components we describe below,
//! such as a separate trusted communication channel ... Our design can be
//! applied to that case in a straightforward manner."
//!
//! [`DirectMonitorLink`] is that application: the display manager calls
//! the policy engine in-process, no netlink, no peer authentication, no
//! context-switch cost. The security semantics are identical to
//! [`crate::link::NetlinkMonitorLink`]'s (verified by tests that run the
//! same scenarios under both wirings); the channel-related attack surface
//! and the per-query RTT simply disappear.

use overhaul_kernel::Kernel;
use overhaul_sim::{Pid, Timestamp};
use overhaul_xserver::protocol::{DisplayOp, MonitorLink};

use crate::link::resource_op;

/// A monitor link for kernel-integrated display managers: calls the
/// policy engine directly instead of crossing a channel, so no channel
/// error can deny.
#[derive(Debug)]
pub struct DirectMonitorLink<'a> {
    kernel: &'a mut Kernel,
}

impl<'a> DirectMonitorLink<'a> {
    /// Wraps the kernel for in-process monitor access.
    pub fn new(kernel: &'a mut Kernel) -> Self {
        DirectMonitorLink { kernel }
    }
}

impl MonitorLink for DirectMonitorLink<'_> {
    fn notify_interaction(&mut self, pid: Pid, at: Timestamp) {
        // A dead pid is not a link error; the kernel audits it.
        let _ = self.kernel.record_interaction_direct(pid, at);
    }

    fn query(&mut self, pid: Pid, op: DisplayOp, at: Timestamp) -> bool {
        self.kernel
            .decide_direct(pid, at, resource_op(op))
            .verdict
            .is_grant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_kernel::KernelConfig;
    use overhaul_sim::Clock;

    #[test]
    fn direct_link_matches_netlink_semantics() {
        let mut kernel = Kernel::new(Clock::new(), KernelConfig::default());
        let app = kernel.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
        let mut link = DirectMonitorLink::new(&mut kernel);
        assert!(!link.query(app, DisplayOp::Paste, Timestamp::from_millis(10)));
        link.notify_interaction(app, Timestamp::from_millis(100));
        assert!(link.query(app, DisplayOp::Paste, Timestamp::from_millis(500)));
        assert!(!link.query(app, DisplayOp::Paste, Timestamp::from_millis(9_000)));
    }

    #[test]
    fn direct_link_needs_no_trusted_peer() {
        // There is no channel to authenticate: the display manager *is*
        // kernel code in this design.
        let mut kernel = Kernel::new(Clock::new(), KernelConfig::default());
        let app = kernel.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
        let mut link = DirectMonitorLink::new(&mut kernel);
        link.notify_interaction(app, Timestamp::from_millis(5));
        assert_eq!(
            kernel.tasks().get(app).unwrap().interaction(),
            Some(Timestamp::from_millis(5))
        );
    }
}
