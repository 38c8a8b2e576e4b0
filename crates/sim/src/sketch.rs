//! Mergeable, exemplar-linked latency sketches for the observability plane.
//!
//! A [`Sketch`] is a hand-rolled, dependency-free, DDSketch-style
//! log-bucketed histogram over `u64` values: each value lands in a bucket
//! whose width grows geometrically (four linear sub-buckets per power of
//! two, ≈12.5 % relative error above 4), so percentile queries over
//! billions of observations cost a few hundred bytes. Sketches merge by
//! bucket-wise addition, which is associative and commutative — the fleet
//! merges per-shard sketches in canonical (shard-index) order and the
//! result is independent of worker scheduling.
//!
//! Every non-empty bucket carries an **exemplar**: the replay coordinate
//! `(shard seed, event index, span id, ledger seq)` of the most extreme
//! observation that landed there. A percentile outlier therefore resolves
//! to a concrete, re-executable event: boot (or restore) the shard, apply
//! the recorded log up to the event index, and the same span id and
//! ledger sequence number fall out again.
//!
//! A [`SketchBook`] holds one sketch pair per instrumented [`Mechanism`]:
//!
//! * the **deterministic plane** — virtual-time values plus all counts and
//!   exemplar coordinates. A pure function of the event sequence, so two
//!   same-seed runs produce byte-identical
//!   [`SketchBook::canonical_bytes`].
//! * the **wall plane** — nanosecond costs measured with the host clock.
//!   Merged and reported (fleet percentiles, bench artifacts) but
//!   excluded from the canonical bytes, exactly like the tracer buffer is
//!   aux-not-hashed in snapshots.
//!
//! Each machine's book is a plain value owned by its kernel, which records
//! through `&mut self`; the machine's snapshot carries it in the aux
//! section, after the kernel's metrics registry.

use std::collections::BTreeMap;

use crate::snapshot::{Dec, Enc, Pack, Snapshot, SnapshotError};

/// An instrumented mechanism: one latency population per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mechanism {
    /// A mediation decision served from the verdict cache (head-sampled).
    DecideCached,
    /// A mediation decision that ran the full policy engine (head-sampled).
    DecideUncached,
    /// One authenticated netlink channel exchange, including fault
    /// handling and retries.
    ChannelExchange,
    /// Retry count of a degraded channel exchange (value = retries drawn,
    /// recorded once per exchange that retried).
    ChannelRetry,
    /// The hash-chain ledger append on the mediation path (head-sampled
    /// with its decide).
    LedgerAppend,
    /// A shared-memory interposition page fault, including propagation
    /// embed/adopt work.
    MmFault,
    /// A full machine checkpoint ([`crate::Snapshot`] export).
    SnapshotExport,
    /// An in-place machine restore from a checkpoint.
    SnapshotRestore,
}

impl Mechanism {
    /// Every mechanism, in canonical (tag) order.
    pub const ALL: [Mechanism; 8] = [
        Mechanism::DecideCached,
        Mechanism::DecideUncached,
        Mechanism::ChannelExchange,
        Mechanism::ChannelRetry,
        Mechanism::LedgerAppend,
        Mechanism::MmFault,
        Mechanism::SnapshotExport,
        Mechanism::SnapshotRestore,
    ];

    /// Stable snake_case label (used for metric labels and CLI arguments).
    pub fn label(&self) -> &'static str {
        match self {
            Mechanism::DecideCached => "decide_cached",
            Mechanism::DecideUncached => "decide_uncached",
            Mechanism::ChannelExchange => "channel_exchange",
            Mechanism::ChannelRetry => "channel_retry",
            Mechanism::LedgerAppend => "ledger_append",
            Mechanism::MmFault => "mm_fault",
            Mechanism::SnapshotExport => "snapshot",
            Mechanism::SnapshotRestore => "restore",
        }
    }

    /// Parses a label (or a convenience alias) back to mechanisms.
    /// `decide` expands to both decide variants, `channel` to the
    /// exchange; exact labels map to themselves.
    pub fn parse(name: &str) -> Option<Vec<Mechanism>> {
        match name {
            "decide" => Some(vec![Mechanism::DecideCached, Mechanism::DecideUncached]),
            "channel" => Some(vec![Mechanism::ChannelExchange]),
            other => Mechanism::ALL
                .iter()
                .find(|m| m.label() == other)
                .map(|m| vec![*m]),
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Mechanism::DecideCached => 0,
            Mechanism::DecideUncached => 1,
            Mechanism::ChannelExchange => 2,
            Mechanism::ChannelRetry => 3,
            Mechanism::LedgerAppend => 4,
            Mechanism::MmFault => 5,
            Mechanism::SnapshotExport => 6,
            Mechanism::SnapshotRestore => 7,
        }
    }

    fn from_tag(tag: u8) -> Result<Mechanism, SnapshotError> {
        Mechanism::ALL
            .get(tag as usize)
            .copied()
            .ok_or(SnapshotError::BadValue("mechanism"))
    }
}

impl Pack for Mechanism {
    fn pack(&self, enc: &mut Enc) {
        enc.put_u8(self.tag());
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Mechanism::from_tag(dec.take_u8()?)
    }
}

/// The replay coordinate of one recorded observation: enough to re-execute
/// the exact event that produced it and check the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The shard seed identifying which machine recorded it.
    pub seed: u64,
    /// 1-based index of the applied [`overhaul event`](crate) — the
    /// recording machine's `events_applied` cursor at observation time
    /// (0 when the observation happened outside any applied event).
    pub event_idx: u64,
    /// Raw trace span id recorded with the observation (0 when tracing
    /// was disabled or the span was dropped).
    pub span: u64,
    /// Ledger sequence number of the last entry sealed by (or before)
    /// the observed operation.
    pub ledger_seq: u64,
    /// The observed value itself (plane-dependent unit).
    pub value: u64,
}

impl Exemplar {
    /// Whether `self` should replace `other` as a bucket's exemplar:
    /// larger values win; ties break toward the smallest
    /// `(seed, event_idx)` so merges are order-independent.
    fn beats(&self, other: &Exemplar) -> bool {
        (self.value, std::cmp::Reverse((self.seed, self.event_idx)))
            > (
                other.value,
                std::cmp::Reverse((other.seed, other.event_idx)),
            )
    }
}

crate::impl_pack!(Exemplar {
    seed,
    event_idx,
    span,
    ledger_seq,
    value,
});

/// Number of linear sub-buckets per power of two. Four gives ≈12.5 %
/// relative error above 4 at ≤ 257 buckets over the full `u64` range.
const SUBBUCKETS: u64 = 4;

/// One log-bucketed histogram with per-bucket exemplars.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sketch {
    /// Total observations.
    count: u64,
    /// Sum of observed values (saturating).
    sum: u64,
    /// Largest observed value.
    max: u64,
    /// Bucket index → observation count.
    buckets: BTreeMap<u16, u64>,
    /// Bucket index → exemplar of the most extreme observation there.
    exemplars: BTreeMap<u16, Exemplar>,
}

/// Maps a value to its bucket index: 0 holds exactly 0; above that, each
/// power of two splits into [`SUBBUCKETS`] linear sub-buckets.
fn bucket_index(v: u64) -> u16 {
    if v == 0 {
        return 0;
    }
    let msb = 63 - v.leading_zeros() as u64;
    let sub = if msb >= 2 { (v >> (msb - 2)) & 0b11 } else { 0 };
    (1 + msb * SUBBUCKETS + sub) as u16
}

/// The lower bound of a bucket — the representative value percentile
/// queries report (so reported quantiles never exceed the true value).
fn bucket_lower(idx: u16) -> u64 {
    if idx == 0 {
        return 0;
    }
    let i = u64::from(idx - 1);
    let msb = i / SUBBUCKETS;
    let sub = i % SUBBUCKETS;
    if msb < 2 {
        1 << msb
    } else {
        (1 << msb) | (sub << (msb - 2))
    }
}

impl Sketch {
    /// An empty sketch.
    pub fn new() -> Sketch {
        Sketch::default()
    }

    /// Records one observation with its replay coordinate.
    pub fn record(&mut self, value: u64, exemplar: Exemplar) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
        let idx = bucket_index(value);
        *self.buckets.entry(idx).or_insert(0) += 1;
        match self.exemplars.get(&idx) {
            Some(existing) if !exemplar.beats(existing) => {}
            _ => {
                self.exemplars.insert(idx, exemplar);
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observed value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Merges another sketch in: bucket-wise count addition, exemplars
    /// resolved by keeping the larger observation (`Exemplar::beats`).
    /// Associative and commutative, so the merged result is independent
    /// of merge order.
    pub fn merge(&mut self, other: &Sketch) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (idx, n) in &other.buckets {
            *self.buckets.entry(*idx).or_insert(0) += n;
        }
        for (idx, ex) in &other.exemplars {
            match self.exemplars.get(idx) {
                Some(existing) if !ex.beats(existing) => {}
                _ => {
                    self.exemplars.insert(*idx, *ex);
                }
            }
        }
    }

    /// The value at quantile `q` (in `[0, 1]`): the lower bound of the
    /// bucket holding the `ceil(q·count)`-th smallest observation.
    /// Returns 0 for an empty sketch.
    pub fn quantile(&self, q: f64) -> u64 {
        let Some(idx) = self.quantile_bucket(q) else {
            return 0;
        };
        bucket_lower(idx)
    }

    /// The exemplar at quantile `q`: the replay coordinate stored in the
    /// quantile's bucket. `None` only for an empty sketch.
    pub fn exemplar_at(&self, q: f64) -> Option<Exemplar> {
        let idx = self.quantile_bucket(q)?;
        self.exemplars.get(&idx).copied()
    }

    fn quantile_bucket(&self, q: f64) -> Option<u16> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(*idx);
            }
        }
        self.buckets.keys().next_back().copied()
    }
}

crate::impl_pack!(Sketch {
    count,
    sum,
    max,
    buckets,
    exemplars,
});

/// The quantiles the fleet reports per mechanism.
pub const FLEET_QUANTILES: [(&str, f64); 4] =
    [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

/// A full set of per-mechanism sketches for one machine (or one merged
/// fleet), split into the deterministic virtual-time plane and the
/// advisory wall-nanosecond plane. See the module docs for the split.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SketchBook {
    /// Identity of the recording machine (the shard seed); exemplars are
    /// stamped with it. 0 for merged books — their exemplars carry the
    /// per-shard seeds.
    seed: u64,
    /// 1-based cursor of the event currently being applied (the count of
    /// `apply_event` calls so far, incremented before each application).
    event_idx: u64,
    /// Deterministic plane: virtual-time values (milliseconds).
    virt: BTreeMap<Mechanism, Sketch>,
    /// Advisory plane: wall-clock costs (nanoseconds).
    wall: BTreeMap<Mechanism, Sketch>,
    /// Watch filter: `(mechanisms, event_idx)` — observations matching it
    /// are appended to `watched`. Transient; never serialized.
    watch: Option<(Vec<Mechanism>, u64)>,
    /// `(span, ledger_seq)` coordinates captured by the watch filter.
    watched: Vec<(u64, u64)>,
}

impl SketchBook {
    /// An empty book.
    pub fn new() -> SketchBook {
        SketchBook::default()
    }

    /// Stamps the recording machine's identity (exemplar `seed` field).
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// The recording machine's identity.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Advances the applied-event cursor (called once per `apply_event`).
    pub fn note_event(&mut self) {
        self.event_idx += 1;
    }

    /// The current applied-event cursor (1-based; 0 before any event).
    pub fn event_idx(&self) -> u64 {
        self.event_idx
    }

    /// Installs a watch: observations for any of `mechs` recorded while
    /// the cursor equals `event_idx` have their `(span, ledger_seq)`
    /// captured for [`SketchBook::watched`]. Replaces any prior watch and
    /// clears prior captures.
    pub fn set_watch(&mut self, mechs: Vec<Mechanism>, event_idx: u64) {
        self.watch = Some((mechs, event_idx));
        self.watched.clear();
    }

    /// The `(span, ledger_seq)` coordinates the current watch captured.
    pub fn watched(&self) -> &[(u64, u64)] {
        &self.watched
    }

    /// Records one observation for `mech`: `virt_ms` into the
    /// deterministic plane, `wall_ns` into the advisory plane, both
    /// stamped with the current replay coordinate.
    pub fn record(&mut self, mech: Mechanism, virt_ms: u64, wall_ns: u64, span: u64, seq: u64) {
        let base = Exemplar {
            seed: self.seed,
            event_idx: self.event_idx,
            span,
            ledger_seq: seq,
            value: 0,
        };
        self.virt.entry(mech).or_default().record(
            virt_ms,
            Exemplar {
                value: virt_ms,
                ..base
            },
        );
        self.wall.entry(mech).or_default().record(
            wall_ns,
            Exemplar {
                value: wall_ns,
                ..base
            },
        );
        if let Some((mechs, at)) = &self.watch {
            if *at == self.event_idx && mechs.contains(&mech) {
                self.watched.push((span, seq));
            }
        }
    }

    /// The deterministic-plane sketch for `mech`, if it recorded anything.
    pub fn virt(&self, mech: Mechanism) -> Option<&Sketch> {
        self.virt.get(&mech)
    }

    /// The wall-plane sketch for `mech`, if it recorded anything.
    pub fn wall(&self, mech: Mechanism) -> Option<&Sketch> {
        self.wall.get(&mech)
    }

    /// The wall-plane sketch merged over several mechanisms (used for the
    /// `decide` alias that spans cached + uncached).
    pub fn wall_merged(&self, mechs: &[Mechanism]) -> Sketch {
        let mut out = Sketch::new();
        for mech in mechs {
            if let Some(s) = self.wall.get(mech) {
                out.merge(s);
            }
        }
        out
    }

    /// Mechanisms with at least one observation, in canonical order.
    pub fn recorded(&self) -> Vec<Mechanism> {
        Mechanism::ALL
            .iter()
            .copied()
            .filter(|m| self.wall.get(m).is_some_and(|s| s.count() > 0))
            .collect()
    }

    /// Merges another book in (both planes). The merged book's identity
    /// and cursor are cleared — exemplars carry per-shard coordinates.
    pub fn merge(&mut self, other: &SketchBook) {
        self.seed = 0;
        self.event_idx = 0;
        for (mech, sketch) in &other.virt {
            self.virt.entry(*mech).or_default().merge(sketch);
        }
        for (mech, sketch) in &other.wall {
            self.wall.entry(*mech).or_default().merge(sketch);
        }
    }

    /// The canonical encoding of the deterministic plane. Two same-seed
    /// soaks must produce byte-identical canonical bytes for their merged
    /// books; the wall plane is deliberately excluded.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.virt.pack(&mut enc);
        enc.into_bytes()
    }

    /// Serializes the whole book as a versioned container: the
    /// deterministic plane in the hashed state section, the wall plane in
    /// the aux section (mirroring how machine snapshots treat it).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut state = Enc::new();
        self.seed.pack(&mut state);
        self.event_idx.pack(&mut state);
        self.virt.pack(&mut state);
        let mut aux = Enc::new();
        self.wall.pack(&mut aux);
        Snapshot::new(state.into_bytes(), aux.into_bytes()).to_bytes()
    }

    /// Parses a book serialized by [`SketchBook::to_bytes`].
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from truncated or corrupt input.
    pub fn from_bytes(bytes: &[u8]) -> Result<SketchBook, SnapshotError> {
        let container = Snapshot::from_bytes(bytes)?;
        let mut state = Dec::new(container.state());
        let seed = u64::unpack(&mut state)?;
        let event_idx = u64::unpack(&mut state)?;
        let virt = BTreeMap::unpack(&mut state)?;
        state.finish()?;
        let mut aux = Dec::new(container.aux());
        let wall = BTreeMap::unpack(&mut aux)?;
        aux.finish()?;
        Ok(SketchBook {
            seed,
            event_idx,
            virt,
            wall,
            watch: None,
            watched: Vec::new(),
        })
    }

    /// Renders the wall-plane percentile table the fleet soak prints.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10}  (wall ns)\n",
            "mechanism", "samples", "p50", "p90", "p99", "p999"
        ));
        for mech in self.recorded() {
            let s = self.wall_merged(&[mech]);
            out.push_str(&format!(
                "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                mech.label(),
                s.count(),
                s.quantile(0.50),
                s.quantile(0.90),
                s.quantile(0.99),
                s.quantile(0.999),
            ));
        }
        out
    }
}

impl Pack for SketchBook {
    fn pack(&self, enc: &mut Enc) {
        self.seed.pack(enc);
        self.event_idx.pack(enc);
        self.virt.pack(enc);
        self.wall.pack(enc);
    }
    fn unpack(dec: &mut Dec<'_>) -> Result<Self, SnapshotError> {
        Ok(SketchBook {
            seed: Pack::unpack(dec)?,
            event_idx: Pack::unpack(dec)?,
            virt: Pack::unpack(dec)?,
            wall: Pack::unpack(dec)?,
            watch: None,
            watched: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(seed: u64, idx: u64, value: u64) -> Exemplar {
        Exemplar {
            seed,
            event_idx: idx,
            span: idx * 10,
            ledger_seq: idx * 100,
            value,
        }
    }

    #[test]
    fn bucket_bounds_are_monotone_and_tight() {
        let mut last = None;
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 9, 100, 1_000, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            let lower = bucket_lower(idx);
            assert!(lower <= v, "lower bound {lower} exceeds value {v}");
            // Relative error of the representative is bounded (≈12.5 %
            // above 4; the tiny buckets are at worst half-off).
            if v >= 4 {
                assert!(v - lower <= v / 4, "bucket too wide at {v}: lower {lower}");
            }
            if let Some((pv, pidx)) = last {
                if v > pv {
                    assert!(idx >= pidx, "bucket index must be monotone");
                }
            }
            last = Some((v, idx));
        }
    }

    #[test]
    fn quantiles_track_the_population() {
        let mut s = Sketch::new();
        for v in 1..=1000u64 {
            s.record(v, ex(1, v, v));
        }
        assert_eq!(s.count(), 1000);
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        assert!((400..=500).contains(&p50), "p50 was {p50}");
        assert!((800..=990).contains(&p99), "p99 was {p99}");
        assert!(p50 <= p99);
        assert!(s.quantile(1.0) <= s.max());
    }

    #[test]
    fn merge_is_order_independent_including_exemplars() {
        let mut a = Sketch::new();
        let mut b = Sketch::new();
        let mut c = Sketch::new();
        for v in 0..200u64 {
            a.record(v * 3, ex(1, v, v * 3));
            b.record(v * 7, ex(2, v, v * 7));
            c.record(v * 11, ex(3, v, v * 11));
        }
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut c_ba = c.clone();
        c_ba.merge(&b);
        c_ba.merge(&a);
        assert_eq!(ab_c, c_ba);
    }

    #[test]
    fn exemplar_tie_breaks_toward_smallest_coordinate() {
        let mut a = Sketch::new();
        a.record(64, ex(5, 9, 64));
        let mut b = Sketch::new();
        b.record(64, ex(2, 30, 64));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let got = ab.exemplar_at(1.0).unwrap();
        assert_eq!((got.seed, got.event_idx), (2, 30), "tie → smallest coord");
    }

    #[test]
    fn book_round_trips_and_canonical_bytes_exclude_wall() {
        let mut book = SketchBook::new();
        book.set_seed(0xabc);
        book.note_event();
        book.record(Mechanism::DecideCached, 0, 1234, 7, 3);
        book.record(Mechanism::ChannelExchange, 5, 99_000, 8, 4);
        let decoded = SketchBook::from_bytes(&book.to_bytes()).expect("decode");
        assert_eq!(decoded, book);

        // Same deterministic plane, different wall values → identical
        // canonical bytes.
        let mut other = SketchBook::new();
        other.set_seed(0xabc);
        other.note_event();
        other.record(Mechanism::DecideCached, 0, 999_999, 7, 3);
        other.record(Mechanism::ChannelExchange, 5, 1, 8, 4);
        assert_eq!(book.canonical_bytes(), other.canonical_bytes());
        assert_ne!(book, other, "wall planes differ");
    }

    #[test]
    fn watch_captures_matching_coordinates() {
        let mut book = SketchBook::new();
        book.set_watch(vec![Mechanism::DecideCached, Mechanism::DecideUncached], 2);
        book.note_event(); // cursor 1
        book.record(Mechanism::DecideCached, 0, 10, 111, 5);
        book.note_event(); // cursor 2
        book.record(Mechanism::DecideUncached, 0, 10, 222, 6);
        book.record(Mechanism::MmFault, 0, 10, 333, 7);
        book.note_event(); // cursor 3
        book.record(Mechanism::DecideCached, 0, 10, 444, 8);
        assert_eq!(book.watched(), &[(222, 6)]);
    }

    #[test]
    fn mechanism_labels_round_trip_through_parse() {
        for mech in Mechanism::ALL {
            assert_eq!(Mechanism::parse(mech.label()), Some(vec![mech]));
        }
        assert_eq!(
            Mechanism::parse("decide"),
            Some(vec![Mechanism::DecideCached, Mechanism::DecideUncached])
        );
        assert_eq!(Mechanism::parse("nope"), None);
    }
}
