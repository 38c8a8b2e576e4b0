//! The display manager's monitor link over the authenticated netlink
//! channel (the paper's userspace design).
//!
//! Both wirings of the display manager — [`NetlinkMonitorLink`] here and
//! the kernel-integrated [`crate::integrated::DirectMonitorLink`] — ask
//! the kernel's one policy engine; only the hop differs. Each implements
//! [`MonitorLink`] directly: a notification is fire-and-forget, and a
//! query that gets no verdict denies (fail closed).

use overhaul_kernel::monitor::ResourceOp;
use overhaul_kernel::netlink::{ConnId, NetlinkMessage, NetlinkReply};
use overhaul_kernel::Kernel;
use overhaul_sim::{Pid, Timestamp};
use overhaul_xserver::protocol::{DisplayOp, MonitorLink};

/// Maps a display-resource operation onto the kernel's operation alphabet.
pub fn resource_op(op: DisplayOp) -> ResourceOp {
    match op {
        DisplayOp::Copy => ResourceOp::Copy,
        DisplayOp::Paste => ResourceOp::Paste,
        DisplayOp::Screen => ResourceOp::Screen,
    }
}

/// A borrowed view of the kernel acting as the X server's monitor link,
/// across an established netlink connection.
#[derive(Debug)]
pub struct NetlinkMonitorLink<'a> {
    kernel: &'a mut Kernel,
    conn: ConnId,
}

impl<'a> NetlinkMonitorLink<'a> {
    /// Wraps an established netlink connection.
    pub fn new(kernel: &'a mut Kernel, conn: ConnId) -> Self {
        NetlinkMonitorLink { kernel, conn }
    }
}

impl MonitorLink for NetlinkMonitorLink<'_> {
    fn notify_interaction(&mut self, pid: Pid, at: Timestamp) {
        // A dropped notification (dead process, torn-down channel) is not
        // an X-server error; the kernel audits it.
        let _ = self.kernel.netlink_send(
            self.conn,
            NetlinkMessage::InteractionNotification { pid, at },
        );
    }

    fn query(&mut self, pid: Pid, op: DisplayOp, at: Timestamp) -> bool {
        let query = NetlinkMessage::PermissionQuery {
            pid,
            op: resource_op(op),
            at,
        };
        match self.kernel.netlink_send(self.conn, query) {
            Ok(NetlinkReply::QueryResponse(decision)) => decision.verdict.is_grant(),
            // Channel failure or unexpected reply: fail closed.
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overhaul_kernel::{KernelConfig, XORG_PATH};
    use overhaul_sim::Clock;

    fn kernel_with_x() -> (Kernel, ConnId, Pid) {
        let mut kernel = Kernel::new(Clock::new(), KernelConfig::default());
        let x = kernel.sys_spawn(Pid::INIT, XORG_PATH).unwrap();
        let conn = kernel.netlink_connect(x).unwrap();
        let app = kernel.sys_spawn(Pid::INIT, "/usr/bin/app").unwrap();
        (kernel, conn, app)
    }

    #[test]
    fn notification_then_query_grants() {
        let (mut kernel, conn, app) = kernel_with_x();
        let mut link = NetlinkMonitorLink::new(&mut kernel, conn);
        link.notify_interaction(app, Timestamp::from_millis(100));
        assert!(link.query(app, DisplayOp::Paste, Timestamp::from_millis(500)));
        assert!(!link.query(app, DisplayOp::Paste, Timestamp::from_millis(5000)));
    }

    #[test]
    fn query_without_interaction_denies() {
        let (mut kernel, conn, app) = kernel_with_x();
        let mut link = NetlinkMonitorLink::new(&mut kernel, conn);
        assert!(!link.query(app, DisplayOp::Screen, Timestamp::from_millis(10)));
    }

    #[test]
    fn dead_process_notification_is_harmless() {
        let (mut kernel, conn, _) = kernel_with_x();
        let mut link = NetlinkMonitorLink::new(&mut kernel, conn);
        link.notify_interaction(Pid::from_raw(12345), Timestamp::ZERO);
        assert!(!link.query(Pid::from_raw(12345), DisplayOp::Copy, Timestamp::ZERO));
    }

    #[test]
    fn op_mapping_matches_paper_alphabet() {
        assert_eq!(resource_op(DisplayOp::Copy), ResourceOp::Copy);
        assert_eq!(resource_op(DisplayOp::Paste), ResourceOp::Paste);
        assert_eq!(resource_op(DisplayOp::Screen), ResourceOp::Screen);
    }
}
