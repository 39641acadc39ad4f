use std::fmt;

use crate::buf::Buf;
use crate::error::Errno;
use crate::fd::Fd;
use crate::fs::{FileStat, OpenMode};
use crate::poll::CtlOp;

/// A recorded system call: the operation and its arguments, exactly as the
/// issuing variant presented them to the kernel boundary.
///
/// This is what the MVE leader logs into the ring buffer and what the
/// follower's own attempts are compared against. `PartialEq` is the
/// divergence check; rewrite rules (see `mvedsua-dsl`) get a chance to
/// bridge expected differences before the comparison runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Syscall {
    Listen { port: u16 },
    Accept { listener: Fd },
    Read { fd: Fd, max: usize },
    ReadTimeout { fd: Fd, max: usize, timeout_ms: u64 },
    Write { fd: Fd, data: Buf },
    Close { fd: Fd },
    EpollCreate,
    EpollCtl { ep: Fd, op: CtlOp, fd: Fd },
    EpollWait { ep: Fd, max: usize, timeout_ms: u64 },
    FsOpen { path: String, mode: OpenMode },
    FsUnlink { path: String },
    FsStat { path: String },
    FsList { path: String },
    FsMkdir { path: String },
    FsRename { from: String, to: String },
    Now,
    Pid,
}

/// Coarse classification of a syscall, used by the rewrite-rule DSL to
/// name operations (`read(...)`, `write(...)`) without matching on every
/// argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SyscallKind {
    Listen,
    Accept,
    Read,
    Write,
    Close,
    EpollCreate,
    EpollCtl,
    EpollWait,
    FsOpen,
    FsUnlink,
    FsStat,
    FsList,
    FsMkdir,
    FsRename,
    Now,
    Pid,
}

impl SyscallKind {
    /// Every kind, in declaration order. The observability layer keeps
    /// per-kind counters in an array indexed by [`SyscallKind::index`];
    /// this is the iteration order for reporting them.
    pub const ALL: [SyscallKind; 16] = [
        SyscallKind::Listen,
        SyscallKind::Accept,
        SyscallKind::Read,
        SyscallKind::Write,
        SyscallKind::Close,
        SyscallKind::EpollCreate,
        SyscallKind::EpollCtl,
        SyscallKind::EpollWait,
        SyscallKind::FsOpen,
        SyscallKind::FsUnlink,
        SyscallKind::FsStat,
        SyscallKind::FsList,
        SyscallKind::FsMkdir,
        SyscallKind::FsRename,
        SyscallKind::Now,
        SyscallKind::Pid,
    ];

    /// Dense index of this kind in [`SyscallKind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The DSL-visible name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            SyscallKind::Listen => "listen",
            SyscallKind::Accept => "accept",
            SyscallKind::Read => "read",
            SyscallKind::Write => "write",
            SyscallKind::Close => "close",
            SyscallKind::EpollCreate => "epoll_create",
            SyscallKind::EpollCtl => "epoll_ctl",
            SyscallKind::EpollWait => "epoll_wait",
            SyscallKind::FsOpen => "open",
            SyscallKind::FsUnlink => "unlink",
            SyscallKind::FsStat => "stat",
            SyscallKind::FsList => "list",
            SyscallKind::FsMkdir => "mkdir",
            SyscallKind::FsRename => "rename",
            SyscallKind::Now => "now",
            SyscallKind::Pid => "pid",
        }
    }

    /// Parses a DSL-visible name back into a kind: the inverse of
    /// [`SyscallKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

impl Syscall {
    /// Classifies the call.
    pub fn kind(&self) -> SyscallKind {
        match self {
            Syscall::Listen { .. } => SyscallKind::Listen,
            Syscall::Accept { .. } => SyscallKind::Accept,
            Syscall::Read { .. } | Syscall::ReadTimeout { .. } => SyscallKind::Read,
            Syscall::Write { .. } => SyscallKind::Write,
            Syscall::Close { .. } => SyscallKind::Close,
            Syscall::EpollCreate => SyscallKind::EpollCreate,
            Syscall::EpollCtl { .. } => SyscallKind::EpollCtl,
            Syscall::EpollWait { .. } => SyscallKind::EpollWait,
            Syscall::FsOpen { .. } => SyscallKind::FsOpen,
            Syscall::FsUnlink { .. } => SyscallKind::FsUnlink,
            Syscall::FsStat { .. } => SyscallKind::FsStat,
            Syscall::FsList { .. } => SyscallKind::FsList,
            Syscall::FsMkdir { .. } => SyscallKind::FsMkdir,
            Syscall::FsRename { .. } => SyscallKind::FsRename,
            Syscall::Now => SyscallKind::Now,
            Syscall::Pid => SyscallKind::Pid,
        }
    }
}

/// The most payload bytes a rendered `write` shows. A longer payload
/// shows this prefix and its total length, so rendering a call for the
/// flight recorder or a divergence report costs the same for a one-line
/// reply as for a whole file.
const RENDERED_PAYLOAD: usize = 64;

impl fmt::Display for Syscall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Syscall::Write { fd, data } => {
                let shown = &data.as_slice()[..data.len().min(RENDERED_PAYLOAD)];
                write!(f, "write(fd={fd}, {:?}", String::from_utf8_lossy(shown))?;
                if data.len() > RENDERED_PAYLOAD {
                    write!(f, "... ({} bytes)", data.len())?;
                }
                write!(f, ")")
            }
            other => write!(f, "{other:?}"),
        }
    }
}

/// The kernel's reply to a [`Syscall`]. The MVE leader logs this next to
/// the call; followers receive it instead of touching the kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SysRet {
    Unit,
    Fd(Fd),
    Size(usize),
    Data(Buf),
    Fds(Vec<Fd>),
    Stat(FileStat),
    Names(Vec<String>),
    Time(u64),
    Pid(u32),
    Err(Errno),
}

impl SysRet {
    /// True if this return value is the error branch.
    pub fn is_err(&self) -> bool {
        matches!(self, SysRet::Err(_))
    }

    /// Extracts an error result, if any.
    pub fn as_err(&self) -> Option<Errno> {
        match self {
            SysRet::Err(e) => Some(*e),
            _ => None,
        }
    }

    // Borrowing accessors: event projection inspects one field of a
    // logged return per projected value, so these must not clone the
    // payload the way `into_*` (which consume `self`) would force.

    /// The read payload, if this is a `Data` result.
    pub fn as_data(&self) -> Option<&Buf> {
        match self {
            SysRet::Data(d) => Some(d),
            _ => None,
        }
    }

    /// The descriptor, if this is an `Fd` result.
    pub fn as_fd(&self) -> Option<Fd> {
        match self {
            SysRet::Fd(fd) => Some(*fd),
            _ => None,
        }
    }

    /// The byte count, if this is a `Size` result.
    pub fn as_size(&self) -> Option<usize> {
        match self {
            SysRet::Size(n) => Some(*n),
            _ => None,
        }
    }

    /// The ready descriptors, if this is an `Fds` result.
    pub fn as_fds(&self) -> Option<&[Fd]> {
        match self {
            SysRet::Fds(fds) => Some(fds),
            _ => None,
        }
    }

    /// The file metadata, if this is a `Stat` result.
    pub fn as_stat(&self) -> Option<&FileStat> {
        match self {
            SysRet::Stat(s) => Some(s),
            _ => None,
        }
    }

    /// The directory entries, if this is a `Names` result.
    pub fn as_names(&self) -> Option<&[String]> {
        match self {
            SysRet::Names(names) => Some(names),
            _ => None,
        }
    }

    /// The timestamp, if this is a `Time` result.
    pub fn as_time(&self) -> Option<u64> {
        match self {
            SysRet::Time(t) => Some(*t),
            _ => None,
        }
    }

    /// The process id, if this is a `Pid` result.
    pub fn as_pid(&self) -> Option<u32> {
        match self {
            SysRet::Pid(p) => Some(*p),
            _ => None,
        }
    }
}

macro_rules! sysret_into {
    ($name:ident, $variant:ident, $ty:ty) => {
        impl SysRet {
            /// Converts the logged return value back into the typed result
            /// the `Os` trait method promises.
            ///
            /// # Errors
            /// Returns `Errno::Inval` if the logged value has the wrong
            /// shape (which indicates ring-buffer corruption, never a
            /// legitimate divergence).
            pub fn $name(self) -> Result<$ty, Errno> {
                match self {
                    SysRet::$variant(v) => Ok(v),
                    SysRet::Err(e) => Err(e),
                    _ => Err(Errno::Inval),
                }
            }
        }
    };
}

sysret_into!(into_fd, Fd, Fd);
sysret_into!(into_size, Size, usize);
sysret_into!(into_data, Data, Buf);
sysret_into!(into_fds, Fds, Vec<Fd>);
sysret_into!(into_stat, Stat, FileStat);
sysret_into!(into_names, Names, Vec<String>);
sysret_into!(into_time, Time, u64);
sysret_into!(into_pid, Pid, u32);

impl SysRet {
    /// Converts a logged unit result back into `Result<(), Errno>`.
    pub fn into_unit(self) -> Result<(), Errno> {
        match self {
            SysRet::Unit => Ok(()),
            SysRet::Err(e) => Err(e),
            _ => Err(Errno::Inval),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for (i, kind) in SyscallKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(SyscallKind::from_name(kind.name()), Some(kind));
        }
        // The names rule files and forensics dumps use, pinned so that
        // two swapped arms of `name` fail here.
        assert_eq!(
            SyscallKind::ALL.map(SyscallKind::name),
            [
                "listen",
                "accept",
                "read",
                "write",
                "close",
                "epoll_create",
                "epoll_ctl",
                "epoll_wait",
                "open",
                "unlink",
                "stat",
                "list",
                "mkdir",
                "rename",
                "now",
                "pid",
            ]
        );
        assert_eq!(SyscallKind::from_name("fork"), None);
    }

    #[test]
    fn read_and_read_timeout_share_a_kind() {
        let a = Syscall::Read {
            fd: Fd::from_raw(1),
            max: 10,
        };
        let b = Syscall::ReadTimeout {
            fd: Fd::from_raw(1),
            max: 10,
            timeout_ms: 5,
        };
        assert_eq!(a.kind(), b.kind());
        assert_ne!(a, b, "but they are distinct calls for comparison");
    }

    #[test]
    fn sysret_typed_extraction() {
        assert_eq!(SysRet::Size(3).into_size().unwrap(), 3);
        assert_eq!(
            SysRet::Err(Errno::TimedOut).into_data().unwrap_err(),
            Errno::TimedOut
        );
        assert_eq!(SysRet::Unit.into_fd().unwrap_err(), Errno::Inval);
        assert!(SysRet::Err(Errno::BadFd).is_err());
        assert_eq!(SysRet::Err(Errno::BadFd).as_err(), Some(Errno::BadFd));
    }

    #[test]
    fn sysret_borrowing_accessors() {
        let data = SysRet::Data(Buf::from_vec(b"abc".to_vec()));
        assert_eq!(data.as_data().unwrap(), b"abc");
        assert!(
            data.as_data().unwrap().ptr_eq(data.as_data().unwrap()),
            "borrowing twice views the same allocation"
        );
        assert_eq!(data.as_size(), None);
        assert_eq!(SysRet::Fd(Fd::from_raw(7)).as_fd(), Some(Fd::from_raw(7)));
        assert_eq!(SysRet::Size(9).as_size(), Some(9));
        assert_eq!(
            SysRet::Fds(vec![Fd::from_raw(1)]).as_fds(),
            Some(&[Fd::from_raw(1)][..])
        );
        assert_eq!(
            SysRet::Names(vec!["a".into()]).as_names(),
            Some(&["a".to_string()][..])
        );
        assert_eq!(SysRet::Time(5).as_time(), Some(5));
        assert_eq!(SysRet::Pid(42).as_pid(), Some(42));
        assert_eq!(SysRet::Err(Errno::BadFd).as_data(), None);
    }

    #[test]
    fn display_shows_write_payload_as_text() {
        let w = Syscall::Write {
            fd: Fd::from_raw(4),
            data: Buf::from(b"PING\r\n"),
        };
        let s = format!("{w}");
        assert!(s.contains("PING"), "{s}");
    }

    #[test]
    fn display_shows_a_short_write_in_full() {
        let fd = Fd::from_raw(4);
        // Up to the limit, including bytes that are not UTF-8.
        let at_limit: Vec<u8> = (0..RENDERED_PAYLOAD).map(|i| (i * 4) as u8).collect();
        for payload in [
            Vec::new(),
            b"PING\r\n".to_vec(),
            vec![0xff; RENDERED_PAYLOAD - 1],
            at_limit,
        ] {
            let w = Syscall::Write {
                fd,
                data: Buf::from_vec(payload.clone()),
            };
            let full = format!("write(fd={fd}, {:?})", String::from_utf8_lossy(&payload));
            assert_eq!(w.to_string(), full, "{} bytes", payload.len());
        }
    }

    #[test]
    fn display_bounds_a_large_write() {
        let w = Syscall::Write {
            fd: Fd::from_raw(4),
            data: Buf::from_vec(vec![b'x'; 2 << 20]),
        };
        let s = w.to_string();
        assert!(s.len() < 200, "{} chars", s.len());
        assert!(s.contains("2097152 bytes"), "{s}");
        assert!(
            s.starts_with(&format!("write(fd=4, \"{}", "x".repeat(64))),
            "{s}"
        );
    }
}
