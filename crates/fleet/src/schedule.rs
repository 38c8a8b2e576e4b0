//! Per-shard plans derived from a master seed.
//!
//! A [`ShardPlan`] is everything a worker needs to run one shard: the
//! shard's seed (a decorrelated splitmix stream off the master seed), the
//! boot configuration (including a seeded fault plan), the step budget,
//! and the chaos schedule (which step, if any, panics / stalls / spins).
//! The concrete [`overhaul_core::Event`] sequence is *generated live* by
//! the shard runner from the shard seed and recorded into an `EventLog` as
//! it is applied — reproduction never needs the generator, only the log.

use overhaul_apps::campaign::{CampaignKind, Expectation};
use overhaul_core::OverhaulConfig;
use overhaul_sim::{Dec, Enc, Pack, SimDuration, SimRng, SnapshotError, Timestamp};

/// A chaos injection the schedule can place on a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOp {
    /// Panic inside the shard (containment must convert it to a failure).
    Panic,
    /// Jump virtual time past the shard's progress deadline (the
    /// virtual-time watchdog must declare the shard hung).
    VirtualStall(SimDuration),
    /// Busy-loop in real time until cancelled (the wall-clock supervisor
    /// must cancel the shard).
    Spin,
}

impl Pack for ChaosOp {
    fn pack(&self, enc: &mut Enc) {
        match self {
            ChaosOp::Panic => enc.put_u8(0),
            ChaosOp::VirtualStall(d) => {
                enc.put_u8(1);
                d.pack(enc);
            }
            ChaosOp::Spin => enc.put_u8(2),
        }
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(match dec.take_u8()? {
            0 => ChaosOp::Panic,
            1 => ChaosOp::VirtualStall(SimDuration::unpack(dec)?),
            2 => ChaosOp::Spin,
            _ => return Err(SnapshotError::BadValue("chaos op tag")),
        })
    }
}

/// One unit of shard work, as classified by the runner.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardOp {
    /// An ordinary recorded input.
    Sys(overhaul_core::Event),
    /// An injected chaos action (never recorded into the event log).
    Chaos(ChaosOp),
    /// A recorded input judged against an explicit expectation — the
    /// policy oracle, which can also represent a documented
    /// `ExpectedBypass`.
    Expect(Expectation, overhaul_core::Event),
}

impl Pack for ShardOp {
    fn pack(&self, enc: &mut Enc) {
        match self {
            ShardOp::Sys(e) => {
                enc.put_u8(0);
                e.pack(enc);
            }
            ShardOp::Chaos(c) => {
                enc.put_u8(2);
                c.pack(enc);
            }
            ShardOp::Expect(expect, e) => {
                enc.put_u8(3);
                expect.pack(enc);
                e.pack(enc);
            }
        }
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(match dec.take_u8()? {
            0 => ShardOp::Sys(Pack::unpack(dec)?),
            2 => ShardOp::Chaos(Pack::unpack(dec)?),
            3 => ShardOp::Expect(Pack::unpack(dec)?, Pack::unpack(dec)?),
            _ => return Err(SnapshotError::BadValue("shard op tag")),
        })
    }
}

/// Chaos intensity knobs, all per-shard probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSpec {
    /// Probability a shard gets an injected panic at a random step.
    pub panic_p: f64,
    /// Probability a shard gets a virtual-time stall at a random step.
    pub stall_p: f64,
    /// Probability a shard gets a wall-clock spin at a random step.
    pub spin_p: f64,
    /// Scales the seeded channel/VFS fault probabilities in `[0, 1]`.
    pub fault_intensity: f64,
}

impl ChaosSpec {
    /// No injected chaos; seeded faults at moderate intensity.
    pub fn faults_only() -> Self {
        ChaosSpec {
            panic_p: 0.0,
            stall_p: 0.0,
            spin_p: 0.0,
            fault_intensity: 0.5,
        }
    }

    /// The full soak mix: faults plus occasional injected panics and
    /// hangs, calibrated so a few-hundred-shard fleet sees several of
    /// each.
    pub fn soak() -> Self {
        ChaosSpec {
            panic_p: 0.04,
            stall_p: 0.03,
            spin_p: 0.01,
            fault_intensity: 0.6,
        }
    }
}

/// Workload shape shared by every shard of a fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetWorkload {
    /// Steps (shard ops) per shard.
    pub steps: usize,
    /// Boot the deliberately permissive grant-all policy instead of the
    /// protected one. The expectation-aware oracle documents the grants as
    /// `ExpectedBypass` ("grants by design"), so grant-all shards complete
    /// cleanly — unless [`FleetWorkload::oracle_strict`] is also set.
    pub grant_all: bool,
    /// Probability a shard interleaves a seeded attack campaign with its
    /// chaos steps.
    pub campaign_p: f64,
    /// Keep expecting `Blocked` even on a grant-all boot. This is the
    /// forced defense-regression lever: strict expectations on a
    /// permissive machine must produce `DefenseRegression` triples, which
    /// proves the detection/bisection path end to end.
    pub oracle_strict: bool,
    /// Chaos injection knobs.
    pub chaos: ChaosSpec,
}

impl Default for FleetWorkload {
    fn default() -> Self {
        FleetWorkload {
            steps: 120,
            grant_all: false,
            campaign_p: 0.0,
            oracle_strict: false,
            chaos: ChaosSpec::faults_only(),
        }
    }
}

/// Chaos placements for one shard (step indices, if drawn).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosSchedule {
    /// Step at which to panic.
    pub panic_at: Option<usize>,
    /// Step at which to jump virtual time past the deadline.
    pub stall_at: Option<usize>,
    /// Step at which to spin in real time.
    pub spin_at: Option<usize>,
}

/// A seeded campaign placement within a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSlot {
    /// Generated step index at which the campaign's stages interleave.
    pub at_step: usize,
    /// Which catalog campaign runs.
    pub kind: CampaignKind,
}

/// Everything a worker needs to run one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Shard index within the fleet.
    pub index: usize,
    /// The shard's decorrelated seed (fully determines the shard).
    pub seed: u64,
    /// Boot configuration, fault plan included.
    pub config: OverhaulConfig,
    /// Step budget.
    pub steps: usize,
    /// Chaos placements.
    pub chaos: ChaosSchedule,
    /// Seeded campaign placement, if drawn.
    pub campaign: Option<CampaignSlot>,
    /// Keep strict `Blocked` expectations even on a grant-all boot (the
    /// forced defense-regression lever).
    pub oracle_strict: bool,
    /// Whether the oracle may excuse expected-grant denials as fail-closed
    /// responses to the shard's seeded fault plan (true whenever faults
    /// are active and strict mode is off). Wrongful *grants* are never
    /// excused.
    pub lenient_oracle: bool,
    /// Virtual instant past which the shard counts as hung.
    pub virtual_deadline: Timestamp,
}

impl ShardPlan {
    /// Derives shard `index`'s plan from the fleet master seed. The same
    /// `(master, index, workload)` always yields the same plan, and the
    /// plan itself is recoverable from `seed` alone via
    /// [`ShardPlan::from_seed`] — which is why a failure triple only needs
    /// to persist the seed.
    pub fn derive(master: u64, index: usize, workload: &FleetWorkload) -> ShardPlan {
        let seed = SimRng::stream_seed(master, index as u64);
        ShardPlan::from_seed(seed, index, workload)
    }

    /// Rebuilds a plan from a shard seed (the reproduction path).
    pub fn from_seed(seed: u64, index: usize, workload: &FleetWorkload) -> ShardPlan {
        let mut rng = SimRng::seeded(seed);

        // Seeded fault plan, scaled by intensity. Sub-seed drawn from the
        // shard stream so fault schedules are decorrelated across shards.
        let intensity = workload.chaos.fault_intensity.clamp(0.0, 1.0);
        let mut spec = overhaul_sim::FaultSpec::quiet(rng.next_u64())
            .with_drop_p(rng.unit() * 0.12 * intensity)
            .with_delay_p(rng.unit() * 0.25 * intensity)
            .with_duplicate_p(rng.unit() * 0.2 * intensity)
            .with_reorder_p(rng.unit() * 0.15 * intensity)
            .with_vfs_stat_fail_p(rng.unit() * 0.08 * intensity);
        let crashes = rng.range(0, 3);
        if crashes > 0 && intensity > 0.0 {
            let mut at = Vec::new();
            for _ in 0..crashes {
                at.push(Timestamp::from_millis(rng.range(2_000, 45_000)));
            }
            at.sort();
            spec = spec.with_x_crashes(at);
        }

        let base = if workload.grant_all {
            OverhaulConfig::grant_all()
        } else {
            OverhaulConfig::protected()
        };
        let config = base
            .with_delta(SimDuration::from_millis(rng.range(1_000, 3_000)))
            .with_fault(spec);

        let chaos = ChaosSchedule {
            panic_at: Self::draw_step(&mut rng, workload.chaos.panic_p, workload.steps),
            stall_at: Self::draw_step(&mut rng, workload.chaos.stall_p, workload.steps),
            spin_at: Self::draw_step(&mut rng, workload.chaos.spin_p, workload.steps),
        };

        // Campaign placement. All three draws happen unconditionally so
        // the stream stays stable whatever campaign_p is.
        let campaign_hit = rng.chance(workload.campaign_p);
        let campaign_step = rng.range(0, workload.steps.max(1) as u64) as usize;
        let campaign_kind =
            CampaignKind::ALL[rng.range(0, CampaignKind::ALL.len() as u64) as usize];
        let campaign = campaign_hit.then_some(CampaignSlot {
            at_step: campaign_step,
            kind: campaign_kind,
        });

        // Generous deadline: legit steps advance at most ~1 s each, so a
        // healthy shard finishes far below it. Only a stall (or a real
        // livelock bug) crosses it. Campaign stages advance tens of
        // virtual seconds on top of the step budget.
        let mut virtual_deadline = Timestamp::from_millis(workload.steps as u64 * 5_000 + 60_000);
        if campaign.is_some() {
            virtual_deadline = Timestamp::from_millis(virtual_deadline.as_millis() + 120_000);
        }

        ShardPlan {
            index,
            seed,
            config,
            steps: workload.steps,
            chaos,
            campaign,
            oracle_strict: workload.oracle_strict,
            lenient_oracle: intensity > 0.0 && !workload.oracle_strict,
            virtual_deadline,
        }
    }

    fn draw_step(rng: &mut SimRng, p: f64, steps: usize) -> Option<usize> {
        // Both draws always happen, so the downstream stream does not
        // depend on which probabilities are zero.
        let hit = rng.chance(p);
        let step = rng.range(0, steps.max(1) as u64) as usize;
        hit.then_some(step)
    }

    /// The virtual-stall jump: far enough past the deadline that no
    /// legitimate op sequence can explain it.
    pub fn stall_jump(&self) -> SimDuration {
        SimDuration::from_millis(self.virtual_deadline.as_millis() + 600_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_index_sensitive() {
        let w = FleetWorkload::default();
        let a = ShardPlan::derive(1, 0, &w);
        let b = ShardPlan::derive(1, 0, &w);
        let c = ShardPlan::derive(1, 1, &w);
        assert_eq!(a, b);
        assert_ne!(a.seed, c.seed);
        assert_ne!(a.config, c.config, "shard configs must be decorrelated");
    }

    #[test]
    fn plan_recoverable_from_seed_alone() {
        let w = FleetWorkload {
            chaos: ChaosSpec::soak(),
            ..FleetWorkload::default()
        };
        let derived = ShardPlan::derive(99, 7, &w);
        let recovered = ShardPlan::from_seed(derived.seed, 7, &w);
        assert_eq!(derived, recovered);
    }

    #[test]
    fn chaos_probabilities_zero_means_no_chaos() {
        let w = FleetWorkload::default();
        for index in 0..64 {
            let plan = ShardPlan::derive(5, index, &w);
            assert_eq!(plan.chaos, ChaosSchedule::default());
        }
    }

    #[test]
    fn soak_chaos_hits_some_shards() {
        let w = FleetWorkload {
            chaos: ChaosSpec::soak(),
            ..FleetWorkload::default()
        };
        let panics = (0..256)
            .filter(|&i| ShardPlan::derive(5, i, &w).chaos.panic_at.is_some())
            .count();
        assert!(panics > 0, "soak chaos should inject panics somewhere");
        assert!(panics < 128, "panic_p=0.04 should not hit half the fleet");
    }

    #[test]
    fn shard_ops_roundtrip_through_pack() {
        let ops = vec![
            ShardOp::Chaos(ChaosOp::Panic),
            ShardOp::Chaos(ChaosOp::VirtualStall(SimDuration::from_secs(700))),
            ShardOp::Chaos(ChaosOp::Spin),
            ShardOp::Sys(overhaul_core::Event::Settle),
            ShardOp::Expect(
                Expectation::Blocked,
                overhaul_core::Event::OpenDevice {
                    pid: overhaul_sim::Pid::from_raw(9),
                    path: "/dev/snd/mic0".into(),
                },
            ),
            ShardOp::Expect(
                Expectation::ExpectedBypass {
                    rationale: "grant-all baseline grants by design".into(),
                },
                overhaul_core::Event::Settle,
            ),
        ];
        let mut enc = Enc::new();
        ops.pack(&mut enc);
        let bytes = enc.into_bytes();
        let back = Vec::<ShardOp>::unpack(&mut Dec::new(&bytes)).expect("unpack");
        assert_eq!(back, ops);
    }

    #[test]
    fn campaign_p_zero_means_no_campaigns_and_one_means_all() {
        let none = FleetWorkload::default();
        let all = FleetWorkload {
            campaign_p: 1.0,
            ..FleetWorkload::default()
        };
        for index in 0..32 {
            assert_eq!(ShardPlan::derive(5, index, &none).campaign, None);
            let plan = ShardPlan::derive(5, index, &all);
            let slot = plan.campaign.expect("campaign_p=1.0 places a campaign");
            assert!(slot.at_step < none.steps);
            assert!(
                plan.virtual_deadline > ShardPlan::derive(5, index, &none).virtual_deadline,
                "campaign shards get extra deadline headroom"
            );
        }
        // The draw covers the whole catalog across the fleet.
        let kinds: std::collections::BTreeSet<_> = (0..64)
            .filter_map(|i| ShardPlan::derive(5, i, &all).campaign)
            .map(|s| format!("{:?}", s.kind))
            .collect();
        assert_eq!(kinds.len(), CampaignKind::ALL.len());
    }

    #[test]
    fn campaign_draw_does_not_shift_existing_streams() {
        // The campaign draws are appended after every legacy draw, so
        // plans with campaign_p=0 are identical to pre-campaign plans in
        // all legacy fields regardless of the new knobs.
        let old = FleetWorkload::default();
        let new = FleetWorkload {
            campaign_p: 1.0,
            ..FleetWorkload::default()
        };
        for index in 0..16 {
            let a = ShardPlan::derive(17, index, &old);
            let b = ShardPlan::derive(17, index, &new);
            assert_eq!(a.config, b.config);
            assert_eq!(a.chaos, b.chaos);
            assert_eq!(a.seed, b.seed);
        }
    }
}
