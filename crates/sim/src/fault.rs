//! Deterministic fault injection for the kernel↔display-manager channel.
//!
//! The paper's security argument rests on the authenticated netlink channel
//! (§IV-B) staying trustworthy; related trusted-path work stresses that it
//! must stay trustworthy *across component failure*. This module provides
//! the failure model: a seeded [`FaultPlan`], driven by the same
//! deterministic substrate as everything else, that decides per message
//! whether the channel drops, delays, duplicates, or reorders it, whether a
//! VFS `stat` fails transiently during channel (re-)authentication, and at
//! which virtual times the X server crashes. Because the plan is a pure
//! function of its seed, every fault scenario is replayable bit-for-bit.
//!
//! The plan is a plain value with one owner, the kernel: it draws channel
//! faults and stat failures from it, and the system harness reaches the
//! crash schedule through the kernel. Every draw takes `&mut self`, so the
//! plan is state like any other and rides in the kernel's snapshot.

use std::collections::VecDeque;

use crate::impl_pack;
use crate::rng::SimRng;
use crate::time::{SimDuration, Timestamp};

/// The fate of one channel message, drawn from a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelFault {
    /// The message arrives intact, on time.
    Deliver,
    /// The message is lost in flight (the sender must retry or give up).
    Drop,
    /// The message arrives after the given extra in-flight time.
    Delay(SimDuration),
    /// The message arrives twice (receivers must deduplicate).
    Duplicate,
    /// The message overtakes / is overtaken by later traffic.
    Reorder,
}

/// Plain-data description of a fault scenario. Lives in configuration
/// (`OverhaulConfig`), compiles into a [`FaultPlan`] at boot.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed of the fault stream. The same spec always produces the same
    /// faults at the same points.
    pub seed: u64,
    /// Probability that a channel message is dropped in flight.
    pub drop_p: f64,
    /// Probability that a channel message is delayed in flight.
    pub delay_p: f64,
    /// Probability that a channel message is duplicated in flight.
    pub duplicate_p: f64,
    /// Probability that a channel message is reordered behind later traffic.
    pub reorder_p: f64,
    /// Lower bound of an injected in-flight delay.
    pub delay_min: SimDuration,
    /// Upper bound (exclusive) of an injected in-flight delay.
    pub delay_max: SimDuration,
    /// Probability that a VFS `stat` fails transiently while the kernel
    /// re-runs VM-map authentication for a (re)connecting peer.
    pub vfs_stat_fail_p: f64,
    /// Virtual times at which the X server crashes (each fires once).
    pub x_crash_at: Vec<Timestamp>,
}

impl FaultSpec {
    /// A plan that injects nothing: all probabilities zero, no scheduled
    /// crashes. The baseline for builder-style customization.
    pub fn quiet(seed: u64) -> Self {
        FaultSpec {
            seed,
            drop_p: 0.0,
            delay_p: 0.0,
            duplicate_p: 0.0,
            reorder_p: 0.0,
            delay_min: SimDuration::from_millis(10),
            delay_max: SimDuration::from_millis(50),
            vfs_stat_fail_p: 0.0,
            x_crash_at: Vec::new(),
        }
    }

    /// Sets the message-drop probability (builder style).
    pub fn with_drop_p(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    /// Sets the message-delay probability (builder style).
    pub fn with_delay_p(mut self, p: f64) -> Self {
        self.delay_p = p;
        self
    }

    /// Sets the message-duplication probability (builder style).
    pub fn with_duplicate_p(mut self, p: f64) -> Self {
        self.duplicate_p = p;
        self
    }

    /// Sets the message-reorder probability (builder style).
    pub fn with_reorder_p(mut self, p: f64) -> Self {
        self.reorder_p = p;
        self
    }

    /// Sets the injected-delay window `[min, max)` (builder style).
    pub fn with_delay_window(mut self, min: SimDuration, max: SimDuration) -> Self {
        self.delay_min = min;
        self.delay_max = max;
        self
    }

    /// Sets the transient-VFS-stat-failure probability (builder style).
    pub fn with_vfs_stat_fail_p(mut self, p: f64) -> Self {
        self.vfs_stat_fail_p = p;
        self
    }

    /// Schedules X-server crashes at the given virtual times (builder
    /// style).
    pub fn with_x_crashes(mut self, at: Vec<Timestamp>) -> Self {
        self.x_crash_at = at;
        self
    }
}

/// Running counters of faults the plan has injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Channel-fault draws taken (one per message attempt).
    pub drawn: u64,
    /// Messages dropped.
    pub drops: u64,
    /// Messages delayed.
    pub delays: u64,
    /// Messages duplicated.
    pub duplicates: u64,
    /// Messages reordered.
    pub reorders: u64,
    /// Transient VFS stat failures injected.
    pub vfs_stat_failures: u64,
    /// Scheduled X crashes fired.
    pub crashes_fired: u64,
}

/// A compiled fault plan: the spec, the position of its fault stream, the
/// remaining crash schedule, the tallies and the armed flag.
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    rng: SimRng,
    crashes: VecDeque<Timestamp>,
    stats: FaultStats,
    armed: bool,
}

impl FaultPlan {
    /// Compiles a spec: seeds the fault stream and sorts the crash
    /// schedule.
    pub fn new(spec: FaultSpec) -> Self {
        let mut crash_times = spec.x_crash_at.clone();
        crash_times.sort();
        FaultPlan {
            rng: SimRng::seeded(spec.seed),
            crashes: crash_times.into(),
            stats: FaultStats::default(),
            armed: true,
            spec,
        }
    }

    /// The spec this plan was compiled from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Arms or disarms channel/stat fault injection (scheduled crashes are
    /// unaffected). Disarmed plans report [`ChannelFault::Deliver`] without
    /// consuming randomness, so tests can inject a burst of faults and then
    /// let the system converge.
    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// Whether channel/stat fault injection is currently armed.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Draws the fate of the next channel message.
    pub fn next_channel_fault(&mut self) -> ChannelFault {
        if !self.armed {
            return ChannelFault::Deliver;
        }
        self.stats.drawn += 1;
        let u = self.rng.unit();
        let spec = &self.spec;
        let mut edge = spec.drop_p;
        if u < edge {
            self.stats.drops += 1;
            return ChannelFault::Drop;
        }
        edge += spec.delay_p;
        if u < edge {
            let (lo, hi) = (spec.delay_min, spec.delay_max);
            let d = if hi <= lo {
                lo
            } else {
                self.rng.duration_between(lo, hi)
            };
            self.stats.delays += 1;
            return ChannelFault::Delay(d);
        }
        edge += spec.duplicate_p;
        if u < edge {
            self.stats.duplicates += 1;
            return ChannelFault::Duplicate;
        }
        edge += spec.reorder_p;
        if u < edge {
            self.stats.reorders += 1;
            return ChannelFault::Reorder;
        }
        ChannelFault::Deliver
    }

    /// Whether the next VFS `stat` during peer (re-)authentication fails.
    pub fn vfs_stat_fails(&mut self) -> bool {
        let p = self.spec.vfs_stat_fail_p;
        if !self.armed || p <= 0.0 {
            return false;
        }
        let fails = self.rng.chance(p);
        if fails {
            self.stats.vfs_stat_failures += 1;
        }
        fails
    }

    /// Pops every scheduled crash with time `<= now`, returning whether any
    /// fired. Each scheduled crash fires exactly once.
    pub fn x_crash_due(&mut self, now: Timestamp) -> bool {
        let mut fired = false;
        while self.crashes.front().is_some_and(|&t| t <= now) {
            self.crashes.pop_front();
            self.stats.crashes_fired += 1;
            fired = true;
        }
        fired
    }

    /// The next scheduled crash time, if any remain.
    pub fn next_crash_at(&self) -> Option<Timestamp> {
        self.crashes.front().copied()
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

// The plan's complete state — spec, RNG stream position, remaining crash
// schedule, stats, armed flag — in the hashed state section: every field
// determines future faults or is a pure function of the event history. A
// restored plan continues the exact fault stream of the uninterrupted run.
impl_pack!(FaultPlan {
    spec,
    rng,
    crashes,
    stats,
    armed
});

impl_pack!(FaultSpec {
    seed,
    drop_p,
    delay_p,
    duplicate_p,
    reorder_p,
    delay_min,
    delay_max,
    vfs_stat_fail_p,
    x_crash_at
});

impl_pack!(FaultStats {
    drawn,
    drops,
    delays,
    duplicates,
    reorders,
    vfs_stat_failures,
    crashes_fired
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Dec, Enc, Pack};

    #[test]
    fn quiet_plan_always_delivers() {
        let mut plan = FaultPlan::new(FaultSpec::quiet(1));
        for _ in 0..64 {
            assert_eq!(plan.next_channel_fault(), ChannelFault::Deliver);
        }
        assert!(!plan.vfs_stat_fails());
        assert!(!plan.x_crash_due(Timestamp::from_millis(1_000_000)));
        assert_eq!(plan.stats().drops, 0);
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let spec = FaultSpec::quiet(42)
            .with_drop_p(0.3)
            .with_delay_p(0.3)
            .with_duplicate_p(0.2)
            .with_reorder_p(0.1);
        let mut a = FaultPlan::new(spec.clone());
        let mut b = FaultPlan::new(spec);
        for _ in 0..256 {
            assert_eq!(a.next_channel_fault(), b.next_channel_fault());
        }
    }

    #[test]
    fn certain_drop_always_drops() {
        let mut plan = FaultPlan::new(FaultSpec::quiet(7).with_drop_p(1.0));
        for _ in 0..16 {
            assert_eq!(plan.next_channel_fault(), ChannelFault::Drop);
        }
        assert_eq!(plan.stats().drops, 16);
        assert_eq!(plan.stats().drawn, 16);
    }

    #[test]
    fn delay_draws_stay_in_window() {
        let mut plan = FaultPlan::new(
            FaultSpec::quiet(9)
                .with_delay_p(1.0)
                .with_delay_window(SimDuration::from_millis(5), SimDuration::from_millis(9)),
        );
        for _ in 0..64 {
            match plan.next_channel_fault() {
                ChannelFault::Delay(d) => {
                    assert!(d >= SimDuration::from_millis(5) && d < SimDuration::from_millis(9));
                }
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn degenerate_delay_window_uses_min() {
        let mut plan = FaultPlan::new(
            FaultSpec::quiet(9)
                .with_delay_p(1.0)
                .with_delay_window(SimDuration::from_millis(30), SimDuration::from_millis(30)),
        );
        assert_eq!(
            plan.next_channel_fault(),
            ChannelFault::Delay(SimDuration::from_millis(30))
        );
    }

    #[test]
    fn crash_schedule_fires_each_time_once() {
        let mut plan = FaultPlan::new(FaultSpec::quiet(1).with_x_crashes(vec![
            Timestamp::from_millis(500),
            Timestamp::from_millis(100),
        ]));
        assert_eq!(plan.next_crash_at(), Some(Timestamp::from_millis(100)));
        assert!(!plan.x_crash_due(Timestamp::from_millis(99)));
        assert!(plan.x_crash_due(Timestamp::from_millis(100)));
        assert!(!plan.x_crash_due(Timestamp::from_millis(100)), "fired once");
        assert!(plan.x_crash_due(Timestamp::from_millis(10_000)));
        assert_eq!(plan.next_crash_at(), None);
        assert_eq!(plan.stats().crashes_fired, 2);
    }

    #[test]
    fn disarmed_plan_injects_nothing_and_rearms() {
        let mut plan = FaultPlan::new(FaultSpec::quiet(3).with_drop_p(1.0));
        plan.set_armed(false);
        assert!(!plan.armed());
        assert_eq!(plan.next_channel_fault(), ChannelFault::Deliver);
        assert_eq!(plan.stats().drawn, 0, "disarmed draws consume no stream");
        plan.set_armed(true);
        assert_eq!(plan.next_channel_fault(), ChannelFault::Drop);
    }

    #[test]
    fn export_import_continues_the_fault_stream() {
        let spec = FaultSpec::quiet(42)
            .with_drop_p(0.3)
            .with_delay_p(0.3)
            .with_duplicate_p(0.1)
            .with_x_crashes(vec![Timestamp::from_millis(900)]);
        let mut original = FaultPlan::new(spec.clone());
        let mut uninterrupted = FaultPlan::new(spec);
        for _ in 0..100 {
            assert_eq!(
                original.next_channel_fault(),
                uninterrupted.next_channel_fault()
            );
        }
        let mut enc = Enc::new();
        original.pack(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let mut restored = FaultPlan::unpack(&mut dec).expect("unpack");
        dec.finish().expect("fully consumed");
        assert_eq!(restored.stats(), uninterrupted.stats());
        assert_eq!(restored.next_crash_at(), Some(Timestamp::from_millis(900)));
        for _ in 0..100 {
            assert_eq!(
                restored.next_channel_fault(),
                uninterrupted.next_channel_fault()
            );
        }
    }

    #[test]
    fn certain_stat_failure_fails() {
        let mut plan = FaultPlan::new(FaultSpec::quiet(11).with_vfs_stat_fail_p(1.0));
        assert!(plan.vfs_stat_fails());
        assert_eq!(plan.stats().vfs_stat_failures, 1);
    }
}
