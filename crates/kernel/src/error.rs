//! Kernel error numbers.
//!
//! The simulated syscall surface reports failures with classic UNIX error
//! numbers. Overhaul's device mediation deliberately reuses `EACCES` — to an
//! unmodified application a temporally-denied device open looks exactly like
//! an ordinary permission failure, which is what keeps the scheme
//! application-transparent.

use std::error::Error;
use std::fmt;

/// A UNIX-style error number returned by the simulated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Errno {
    /// Operation not permitted.
    Eperm,
    /// No such file or directory.
    Enoent,
    /// No such process.
    Esrch,
    /// Bad file descriptor.
    Ebadf,
    /// Resource temporarily unavailable.
    Eagain,
    /// Permission denied.
    Eacces,
    /// Bad address.
    Efault,
    /// File exists.
    Eexist,
    /// No such device.
    Enodev,
    /// Not a directory.
    Enotdir,
    /// Is a directory.
    Eisdir,
    /// Invalid argument.
    Einval,
    /// Broken pipe.
    Epipe,
    /// Function not implemented.
    Enosys,
    /// Directory not empty.
    Enotempty,
    /// No message of the desired type (empty queue, non-blocking).
    Enomsg,
    /// Connection reset by peer.
    Econnreset,
}

impl Errno {
    /// The conventional short name (`EACCES`, `ENOENT`, ...).
    pub const fn name(self) -> &'static str {
        match self {
            Errno::Eperm => "EPERM",
            Errno::Enoent => "ENOENT",
            Errno::Esrch => "ESRCH",
            Errno::Ebadf => "EBADF",
            Errno::Eagain => "EAGAIN",
            Errno::Eacces => "EACCES",
            Errno::Efault => "EFAULT",
            Errno::Eexist => "EEXIST",
            Errno::Enodev => "ENODEV",
            Errno::Enotdir => "ENOTDIR",
            Errno::Eisdir => "EISDIR",
            Errno::Einval => "EINVAL",
            Errno::Epipe => "EPIPE",
            Errno::Enosys => "ENOSYS",
            Errno::Enotempty => "ENOTEMPTY",
            Errno::Enomsg => "ENOMSG",
            Errno::Econnreset => "ECONNRESET",
        }
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            Errno::Eperm => "operation not permitted",
            Errno::Enoent => "no such file or directory",
            Errno::Esrch => "no such process",
            Errno::Ebadf => "bad file descriptor",
            Errno::Eagain => "resource temporarily unavailable",
            Errno::Eacces => "permission denied",
            Errno::Efault => "bad address",
            Errno::Eexist => "file exists",
            Errno::Enodev => "no such device",
            Errno::Enotdir => "not a directory",
            Errno::Eisdir => "is a directory",
            Errno::Einval => "invalid argument",
            Errno::Epipe => "broken pipe",
            Errno::Enosys => "function not implemented",
            Errno::Enotempty => "directory not empty",
            Errno::Enomsg => "no message of desired type",
            Errno::Econnreset => "connection reset by peer",
        };
        write!(f, "{} ({})", msg, self.name())
    }
}

impl Error for Errno {}

/// Convenience alias for syscall results.
pub type SysResult<T> = Result<T, Errno>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_name_and_message() {
        let rendered = Errno::Eacces.to_string();
        assert!(rendered.contains("EACCES"));
        assert!(rendered.contains("permission denied"));
    }

    #[test]
    fn names_match_convention() {
        assert_eq!(Errno::Enoent.name(), "ENOENT");
        assert_eq!(Errno::Epipe.name(), "EPIPE");
    }

    #[test]
    fn errno_is_a_std_error() {
        fn takes_error<E: Error>(_: E) {}
        takes_error(Errno::Einval);
    }
}
