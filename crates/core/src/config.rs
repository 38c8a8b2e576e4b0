//! System-wide Overhaul configuration.

use overhaul_kernel::device::DeviceClass;
use overhaul_kernel::KernelConfig;
use overhaul_sim::{FaultSpec, SimDuration};
use overhaul_xserver::XConfig;

/// A sensitive device to attach at boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Device class.
    pub class: DeviceClass,
    /// Human-readable label.
    pub label: String,
    /// Filesystem node path.
    pub path: String,
}

impl DeviceSpec {
    /// Creates a spec.
    pub fn new(class: DeviceClass, label: impl Into<String>, path: impl Into<String>) -> Self {
        DeviceSpec {
            class,
            label: label.into(),
            path: path.into(),
        }
    }
}

/// Configuration of a whole Overhaul-enhanced machine.
#[derive(Debug, Clone, PartialEq)]
pub struct OverhaulConfig {
    /// Kernel-side settings (δ, shm wait window, ptrace hardening, ...).
    pub kernel: KernelConfig,
    /// Display-manager settings (clickjack threshold, alerts, ...).
    pub x: XConfig,
    /// Devices attached at boot.
    pub devices: Vec<DeviceSpec>,
    /// Kernel-integrated display manager (§III): the display manager calls
    /// the permission monitor in-process; no netlink channel exists.
    pub integrated_dm: bool,
    /// Optional deterministic fault plan injected at boot: seeded message
    /// drops/delays/duplicates/reorders on the netlink channel, scheduled
    /// display-manager crashes, and VFS stat failures during channel
    /// authentication. `None` means a fault-free run.
    pub fault: Option<FaultSpec>,
    /// Enables virtual-time span tracing: a shared [`overhaul_sim::Tracer`]
    /// is installed into the kernel and the display manager at boot, and
    /// [`crate::System::trace_dump`] renders the collected span tree. Off
    /// by default — a disabled tracer keeps the mediation hot paths free of
    /// bookkeeping.
    pub tracing: bool,
}

impl Default for OverhaulConfig {
    fn default() -> Self {
        OverhaulConfig {
            kernel: KernelConfig::default(),
            x: XConfig::default(),
            devices: vec![
                DeviceSpec::new(DeviceClass::Microphone, "built-in mic", "/dev/snd/mic0"),
                DeviceSpec::new(DeviceClass::Camera, "webcam", "/dev/video0"),
            ],
            integrated_dm: false,
            fault: None,
            tracing: false,
        }
    }
}

impl OverhaulConfig {
    /// A fully protected machine (the paper's configuration: δ = 2 s,
    /// shm wait 500 ms, ptrace hardening on).
    pub fn protected() -> Self {
        OverhaulConfig::default()
    }

    /// An unmodified machine (kernel and X server both stock) — the
    /// Table I baseline and the vulnerable computer of §V-D.
    pub fn baseline() -> Self {
        OverhaulConfig {
            kernel: KernelConfig::baseline(),
            x: XConfig::baseline(),
            ..OverhaulConfig::default()
        }
    }

    /// A protected machine with a kernel-integrated display manager: same
    /// policy, no netlink channel (the §III variant).
    pub fn integrated() -> Self {
        OverhaulConfig {
            integrated_dm: true,
            ..OverhaulConfig::protected()
        }
    }

    /// The Table I measurement configuration: all mediation code runs but
    /// the monitor grants everything, "to exercise the entire execution
    /// path" without needing scripted user input.
    pub fn grant_all() -> Self {
        let mut config = OverhaulConfig::protected();
        config.kernel.monitor.grant_all = true;
        config
    }

    /// Sets the temporal-proximity threshold δ (builder style).
    pub fn with_delta(mut self, delta: SimDuration) -> Self {
        self.kernel.monitor.delta = delta;
        self
    }

    /// Sets the shared-memory wait window (builder style).
    pub fn with_shm_wait(mut self, wait: SimDuration) -> Self {
        self.kernel.shm_wait = wait;
        self
    }

    /// Sets the clickjacking visibility threshold (builder style).
    pub fn with_visibility_threshold(mut self, threshold: SimDuration) -> Self {
        self.x.visibility_threshold = threshold;
        self
    }

    /// Installs a deterministic fault plan (builder style). The plan is
    /// armed at boot and drives channel faults, scheduled display-manager
    /// crashes, and VFS stat failures for the whole run.
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        self.fault = Some(spec);
        self
    }

    /// Enables virtual-time span tracing and metrics histograms (builder
    /// style). Traces are deterministic: the same seed and workload produce
    /// a byte-identical [`crate::System::trace_dump`].
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Whether this configuration has Overhaul active anywhere.
    pub fn overhaul_enabled(&self) -> bool {
        self.kernel.overhaul_enabled || self.x.overhaul_enabled
    }
}

mod pack {
    //! Snapshot codec for the machine configuration.

    use overhaul_sim::impl_pack;

    use super::{DeviceSpec, OverhaulConfig};

    impl_pack!(DeviceSpec { class, label, path });
    impl_pack!(OverhaulConfig {
        kernel,
        x,
        devices,
        integrated_dm,
        fault,
        tracing
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protected_defaults_match_paper() {
        let c = OverhaulConfig::protected();
        assert_eq!(c.kernel.monitor.delta, SimDuration::from_secs(2));
        assert_eq!(c.kernel.shm_wait, SimDuration::from_millis(500));
        assert!(c.kernel.ptrace_hardening);
        assert!(c.overhaul_enabled());
    }

    #[test]
    fn baseline_disables_both_sides() {
        let c = OverhaulConfig::baseline();
        assert!(!c.kernel.overhaul_enabled);
        assert!(!c.x.overhaul_enabled);
        assert!(!c.overhaul_enabled());
    }

    #[test]
    fn grant_all_keeps_checks_running() {
        let c = OverhaulConfig::grant_all();
        assert!(c.kernel.overhaul_enabled);
        assert!(c.kernel.monitor.grant_all);
        assert!(c.x.overhaul_enabled);
    }

    #[test]
    fn builder_setters_apply() {
        let c = OverhaulConfig::protected()
            .with_delta(SimDuration::from_millis(750))
            .with_shm_wait(SimDuration::from_millis(100))
            .with_visibility_threshold(SimDuration::from_millis(50));
        assert_eq!(c.kernel.monitor.delta, SimDuration::from_millis(750));
        assert_eq!(c.kernel.shm_wait, SimDuration::from_millis(100));
        assert_eq!(c.x.visibility_threshold, SimDuration::from_millis(50));
    }

    #[test]
    fn fault_and_retry_builders_apply() {
        let c = OverhaulConfig::protected().with_fault(FaultSpec::quiet(7).with_drop_p(0.25));
        assert!(c.fault.is_some());
    }

    #[test]
    fn tracing_defaults_off_and_builder_enables() {
        assert!(!OverhaulConfig::default().tracing);
        assert!(OverhaulConfig::protected().with_tracing().tracing);
    }

    #[test]
    fn default_has_no_fault_plan() {
        assert!(OverhaulConfig::default().fault.is_none());
    }

    #[test]
    fn default_devices_are_mic_and_cam() {
        let c = OverhaulConfig::default();
        assert_eq!(c.devices.len(), 2);
        assert!(c.devices.iter().any(|d| d.class == DeviceClass::Microphone));
        assert!(c.devices.iter().any(|d| d.class == DeviceClass::Camera));
    }
}
