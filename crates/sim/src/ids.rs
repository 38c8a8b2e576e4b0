//! Strongly typed identifiers shared across the simulated OS stack.
//!
//! The kernel simulator, the display-manager simulator, and the Overhaul
//! policy layer all refer to processes by [`Pid`]. Newtypes keep a `Pid`
//! from being confused with a file descriptor or a window id at compile
//! time (C-NEWTYPE).

use std::fmt;

/// A process identifier in the simulated kernel.
///
/// The display manager labels interaction notifications with the `Pid` of
/// the X client that received the event; the kernel's permission monitor
/// stores the interaction timestamp in that process's task structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(u32);

impl Pid {
    /// The init process of the simulated system.
    pub const INIT: Pid = Pid(1);

    /// Creates a `Pid` from its raw numeric value.
    pub const fn from_raw(raw: u32) -> Self {
        Pid(raw)
    }

    /// The raw numeric value.
    pub const fn as_raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// A user identifier in the simulated kernel.
///
/// Overhaul layers on top of — it does not replace — classic UNIX
/// user-based access control, so device nodes and files still carry owners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Uid(u32);

impl Uid {
    /// The superuser.
    pub const ROOT: Uid = Uid(0);

    /// Creates a `Uid` from its raw numeric value.
    pub const fn from_raw(raw: u32) -> Self {
        Uid(raw)
    }

    /// The raw numeric value.
    pub const fn as_raw(self) -> u32 {
        self.0
    }

    /// Whether this is the superuser.
    pub const fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid:{}", self.0)
    }
}

/// A per-process file descriptor in the simulated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(u32);

impl Fd {
    /// Creates an `Fd` from its raw numeric value.
    pub const fn from_raw(raw: u32) -> Self {
        Fd(raw)
    }

    /// The raw numeric value.
    pub const fn as_raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_round_trips_and_displays() {
        let pid = Pid::from_raw(42);
        assert_eq!(pid.as_raw(), 42);
        assert_eq!(pid.to_string(), "pid:42");
        assert_eq!(Pid::INIT.as_raw(), 1);
    }

    #[test]
    fn uid_root_detection() {
        assert!(Uid::ROOT.is_root());
        assert!(!Uid::from_raw(1000).is_root());
        assert_eq!(Uid::from_raw(1000).to_string(), "uid:1000");
    }

    #[test]
    fn fd_round_trips() {
        let fd = Fd::from_raw(3);
        assert_eq!(fd.as_raw(), 3);
        assert_eq!(fd.to_string(), "fd:3");
    }

    #[test]
    fn ids_are_ordered_for_deterministic_iteration() {
        assert!(Pid::from_raw(1) < Pid::from_raw(2));
        assert!(Fd::from_raw(0) < Fd::from_raw(7));
    }
}
