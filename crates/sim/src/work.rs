//! The calibrated cost model.
//!
//! The simulator executes in nanoseconds operations that cost microseconds
//! to milliseconds on a real machine (device driver bring-up, X socket
//! round trips, netlink context switches, overlay rendering, framebuffer
//! transfers). Left unmodeled, that asymmetry wildly inflates *relative*
//! overhead numbers: a 100 ns mediation check looks like +50 % on a 200 ns
//! simulated `open`, where the paper measured +2.17 % on a 4.5 µs real one.
//!
//! The constants below give each expensive operation its real cost,
//! derived from the paper's Table I baseline per-operation times. The
//! kernel and the display manager *charge* a constant to their
//! [`ModelledCost`] where the operation happens; charging never waits,
//! never moves the virtual clock and is never serialized or hashed, so
//! replay, fleet shards and tests run at simulation speed. A harness that
//! needs realistic wall time (the Table I rows and the wire-query row in
//! `overhaul-bench`) reads the machine's total around an operation and
//! busy-waits the difference. The charges apply identically to baseline
//! and Overhaul configurations, so they calibrate denominators without
//! manufacturing overheads.

use std::ops::Add;

/// Driver bring-up per `open(2)` of a device node. Table I measures
/// 45.2 s for 10 M baseline opens of the microphone node — about 4.5 µs
/// per open.
pub const DRIVER_OPEN_NS: u64 = 4_500;

/// One netlink exchange: two user/kernel boundary crossings plus wakeups.
/// Derived from Table I's clipboard row, where the paste-time permission
/// query accounts for ~35 µs of overhead per operation on the paper's
/// testbed.
pub const NETLINK_RTT_NS: u64 = 30_000;

/// One X client↔server socket round trip plus the server's dispatch
/// critical section. Table I's clipboard row (116.48 s baseline / 100 k
/// pastes, ~5 requests per paste) puts this near 230 µs.
pub const X_REQUEST_RTT_NS: u64 = 230_000;

/// Compositing one overlay alert or prompt. Table I's screen-capture row
/// shows +1.6 ms per capture under Overhaul, dominated by compositing the
/// alert banner.
pub const ALERT_RENDER_NS: u64 = 1_500_000;

/// Framebuffer read-back and transfer per pixel for `GetImage`-family
/// requests. Table I's screen-capture row (68.26 s baseline / 1 000
/// full-screen captures at 1920x1080) works out to ~33 ns per pixel.
pub const CAPTURE_NS_PER_PIXEL: u64 = 33;

/// Disk and journal work per file creation. Table I's Bonnie++ row
/// measures ~47 300 creations per second on the baseline — about 21 µs
/// per create.
pub const FILE_CREATE_NS: u64 = 20_000;

/// Modelled nanoseconds a machine has charged, per kind of cost.
///
/// Instance-level, like the kernel's snapshot counters: never serialized,
/// hashed or exported, and zero on a machine rebuilt from a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelledCost {
    /// Device-node opens, [`DRIVER_OPEN_NS`] each.
    pub driver_open_ns: u64,
    /// Netlink exchanges, [`NETLINK_RTT_NS`] each.
    pub netlink_rtt_ns: u64,
    /// X requests, [`X_REQUEST_RTT_NS`] each.
    pub x_request_rtt_ns: u64,
    /// Overlay alerts and prompts drawn, [`ALERT_RENDER_NS`] each.
    pub alert_render_ns: u64,
    /// Captured pixels, [`CAPTURE_NS_PER_PIXEL`] each.
    pub framebuffer_copy_ns: u64,
    /// File creations, [`FILE_CREATE_NS`] each.
    pub file_create_ns: u64,
}

impl ModelledCost {
    /// Everything charged, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.driver_open_ns
            + self.netlink_rtt_ns
            + self.x_request_rtt_ns
            + self.alert_render_ns
            + self.framebuffer_copy_ns
            + self.file_create_ns
    }
}

impl Add for ModelledCost {
    type Output = ModelledCost;

    fn add(self, other: ModelledCost) -> ModelledCost {
        ModelledCost {
            driver_open_ns: self.driver_open_ns + other.driver_open_ns,
            netlink_rtt_ns: self.netlink_rtt_ns + other.netlink_rtt_ns,
            x_request_rtt_ns: self.x_request_rtt_ns + other.x_request_rtt_ns,
            alert_render_ns: self.alert_render_ns + other.alert_render_ns,
            framebuffer_copy_ns: self.framebuffer_copy_ns + other.framebuffer_copy_ns,
            file_create_ns: self.file_create_ns + other.file_create_ns,
        }
    }
}
