//! Virtual time.
//!
//! Overhaul's access-control decision is a comparison of two timestamps: the
//! most recent authentic user interaction with a process, and the time of a
//! privileged operation. Running that logic against wall-clock time would
//! make tests flaky and experiments irreproducible, so the whole simulation
//! shares one [`Clock`] that only moves when a test or harness advances it.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in virtual time, in milliseconds since simulation start.
///
/// `Timestamp` is ordered and cheap to copy; subtracting two timestamps
/// yields a [`SimDuration`].
///
/// ```
/// use overhaul_sim::{SimDuration, Timestamp};
///
/// let a = Timestamp::from_millis(100);
/// let b = a + SimDuration::from_millis(250);
/// assert_eq!(b - a, SimDuration::from_millis(250));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The zero timestamp (simulation start).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp `millis` milliseconds after simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        Timestamp(millis)
    }

    /// Milliseconds since simulation start.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is actually later than `self`.
    pub fn saturating_since(self, earlier: Timestamp) -> SimDuration {
        SimDuration::from_millis(self.0.saturating_sub(earlier.0))
    }

    /// Timestamp advanced by `d`, saturating at `u64::MAX`.
    pub fn saturating_add(self, d: SimDuration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

/// Saturates at the end of time (`u64::MAX` ms), in every build profile:
/// a deadline past the end of time never wraps to the past.
impl Add<SimDuration> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: SimDuration) -> Timestamp {
        self.saturating_add(rhs)
    }
}

impl AddAssign<SimDuration> for Timestamp {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = self.saturating_add(rhs);
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = SimDuration;

    fn sub(self, rhs: Timestamp) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

/// A span of virtual time, in milliseconds.
///
/// Used for the paper's tunables: the temporal-proximity threshold δ
/// (2 000 ms in the prototype), the shared-memory fault wait list
/// (500 ms), and the clickjacking visibility threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1000)
    }

    /// Length in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Length in (truncated) whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// This duration doubled `times` times, saturating at `u64::MAX` ms:
    /// the exponential backoff before a retry.
    pub fn saturating_doubled(self, times: u32) -> SimDuration {
        let factor = 1u64.checked_shl(times).unwrap_or(u64::MAX);
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

/// Saturates at `u64::MAX` ms, like `Timestamp + SimDuration`.
impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

/// A shared, monotonically increasing virtual clock.
///
/// `Clock` is a cheap handle (`Arc` internally); every component of the
/// simulation holds a clone and reads the same instant. Only harness code
/// advances it.
///
/// ```
/// use overhaul_sim::{Clock, SimDuration, Timestamp};
///
/// let clock = Clock::new();
/// let view = clock.clone();
/// clock.advance(SimDuration::from_secs(2));
/// assert_eq!(view.now(), Timestamp::from_millis(2000));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now_ms: Arc<AtomicU64>,
}

impl Clock {
    /// Creates a clock at [`Timestamp::ZERO`].
    pub fn new() -> Self {
        Clock::default()
    }

    /// Creates a clock already advanced to `start`.
    pub fn starting_at(start: Timestamp) -> Self {
        let clock = Clock::new();
        clock.now_ms.store(start.as_millis(), Ordering::SeqCst);
        clock
    }

    /// The current virtual instant.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.now_ms.load(Ordering::SeqCst))
    }

    /// Advances the clock by `d` and returns the new instant. An advance
    /// past the end of time (`u64::MAX` ms) is refused: the clock stays
    /// where it is and the result is `None`, in every build profile.
    pub fn advance(&self, d: SimDuration) -> Option<Timestamp> {
        self.now_ms
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |now| {
                now.checked_add(d.as_millis())
            })
            .ok()
            .map(|before| Timestamp(before + d.as_millis()))
    }

    /// Returns `true` if this handle and `other` observe the same underlying
    /// clock (not merely the same instant).
    pub fn same_clock(&self, other: &Clock) -> bool {
        Arc::ptr_eq(&self.now_ms, &other.now_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic_round_trips() {
        let t = Timestamp::from_millis(10);
        let d = SimDuration::from_millis(5);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).as_millis(), 15);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = Timestamp::from_millis(5);
        let late = Timestamp::from_millis(9);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(4));
    }

    #[test]
    fn duration_seconds_conversion() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2000);
        assert_eq!(SimDuration::from_millis(2500).as_secs(), 2);
    }

    #[test]
    fn clock_handles_share_time() {
        let clock = Clock::new();
        let other = clock.clone();
        clock.advance(SimDuration::from_millis(42));
        assert_eq!(other.now(), Timestamp::from_millis(42));
        assert!(clock.same_clock(&other));
        assert!(!clock.same_clock(&Clock::new()));
    }

    #[test]
    fn clock_starting_at_offset() {
        let clock = Clock::starting_at(Timestamp::from_millis(100));
        assert_eq!(clock.now(), Timestamp::from_millis(100));
    }

    #[test]
    fn advance_returns_new_now() {
        let clock = Clock::new();
        let t = clock.advance(SimDuration::from_millis(7));
        assert_eq!(t, Some(clock.now()));
    }

    #[test]
    fn time_ends_without_wrapping() {
        let clock = Clock::starting_at(Timestamp::from_millis(1));
        assert_eq!(clock.advance(SimDuration::from_millis(u64::MAX)), None);
        assert_eq!(clock.now(), Timestamp::from_millis(1), "refused: unchanged");
        let end = Timestamp::from_millis(u64::MAX);
        assert_eq!(
            clock.advance(SimDuration::from_millis(u64::MAX - 1)),
            Some(end)
        );
        assert_eq!(clock.advance(SimDuration::from_millis(1)), None);
        assert_eq!(clock.advance(SimDuration::ZERO), Some(end));
        let mut t = end + SimDuration::from_secs(2);
        t += SimDuration::from_millis(1);
        assert_eq!(t, end, "deadlines saturate at the end of time");
        assert_eq!(
            SimDuration::from_millis(u64::MAX) + SimDuration::from_millis(1),
            SimDuration::from_millis(u64::MAX)
        );
        // Retry backoffs: sixty doublings of 10 ms fit, the sixty-first
        // and a shift past the width of u64 saturate.
        let backoff = SimDuration::from_millis(10);
        assert_eq!(backoff.saturating_doubled(2), SimDuration::from_millis(40));
        assert_eq!(
            backoff.saturating_doubled(60),
            SimDuration::from_millis(10 << 60)
        );
        for times in [61, 64, u32::MAX] {
            assert_eq!(
                backoff.saturating_doubled(times),
                SimDuration::from_millis(u64::MAX)
            );
        }
    }

    #[test]
    fn timestamp_display_is_informative() {
        assert_eq!(Timestamp::from_millis(3).to_string(), "t+3ms");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3ms");
    }
}
