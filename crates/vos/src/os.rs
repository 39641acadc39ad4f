use std::sync::Arc;
use std::time::Duration;

use crate::buf::Buf;
use crate::error::OsResult;
use crate::fd::Fd;
use crate::fs::{FileStat, OpenMode};
use crate::kernel::VirtualKernel;
use crate::poll::CtlOp;

/// The syscall surface that application code is written against.
///
/// This trait is the interposition boundary of the whole system — the
/// moral equivalent of the libc/kernel line that Varan intercepts with
/// binary rewriting. Server variants receive a `&mut dyn Os`, one of:
///
/// * [`DirectOs`] — native execution, no interposition (the "Native" rows
///   in the paper's Table 2);
/// * `VariantOs` (in `mvedsua-mve`) — one type in three roles: *single*
///   executes each call with lightweight interception, so a follower
///   can be forked later; *leader* executes and logs each call into the
///   ring buffer; *follower* replays the leader's log, never touching
///   the kernel.
///
/// Blocking calls take explicit millisecond timeouts so the event loop
/// regularly returns to its update point (the paper §5.3 makes
/// `epoll_wait` an update point for the same reason).
pub trait Os: Send {
    /// Binds a listener on `port`.
    ///
    /// # Errors
    /// `AddrInUse` if the port is taken.
    fn listen(&mut self, port: u16) -> OsResult<Fd>;

    /// Accepts a pending connection (non-blocking).
    ///
    /// # Errors
    /// `WouldBlock` if none is queued.
    fn accept(&mut self, listener: Fd) -> OsResult<Fd>;

    /// Reads up to `max` bytes, blocking indefinitely. The returned
    /// [`Buf`] is a zero-copy view of the writer's allocation on the
    /// stream fast path.
    ///
    /// # Errors
    /// `BadFd` if the descriptor is dead. An empty `Ok` is EOF.
    fn read(&mut self, fd: Fd, max: usize) -> OsResult<Buf>;

    /// Reads up to `max` bytes, waiting at most `timeout_ms`.
    ///
    /// # Errors
    /// `TimedOut` when the timeout elapses with no data.
    fn read_timeout(&mut self, fd: Fd, max: usize, timeout_ms: u64) -> OsResult<Buf>;

    /// Writes `data`, returning the byte count written.
    fn write(&mut self, fd: Fd, data: &[u8]) -> OsResult<usize>;

    /// Writes an already-shared buffer. Implementations that can carry
    /// the buffer through without copying (the kernel data plane, the
    /// MVE leader's log) override this; the default delegates to
    /// [`write`](Self::write), which is always correct.
    fn write_buf(&mut self, fd: Fd, data: Buf) -> OsResult<usize> {
        self.write(fd, &data)
    }

    /// Closes a descriptor.
    fn close(&mut self, fd: Fd) -> OsResult<()>;

    /// Creates an epoll instance.
    fn epoll_create(&mut self) -> OsResult<Fd>;

    /// Registers or removes interest.
    fn epoll_ctl(&mut self, ep: Fd, op: CtlOp, fd: Fd) -> OsResult<()>;

    /// Waits up to `timeout_ms` for readiness; an empty result is a
    /// timeout.
    fn epoll_wait(&mut self, ep: Fd, max: usize, timeout_ms: u64) -> OsResult<Vec<Fd>>;

    /// Opens a filesystem path.
    fn fs_open(&mut self, path: &str, mode: OpenMode) -> OsResult<Fd>;
    /// Removes a file.
    fn fs_unlink(&mut self, path: &str) -> OsResult<()>;
    /// Stats a path.
    fn fs_stat(&mut self, path: &str) -> OsResult<FileStat>;
    /// Lists a directory.
    fn fs_list(&mut self, path: &str) -> OsResult<Vec<String>>;
    /// Creates a directory.
    fn fs_mkdir(&mut self, path: &str) -> OsResult<()>;
    /// Renames a path.
    fn fs_rename(&mut self, from: &str, to: &str) -> OsResult<()>;

    /// Nanoseconds since kernel boot, as observed through the syscall
    /// layer (followers see the leader's timestamps).
    fn now(&mut self) -> u64;

    /// This variant's logical process id.
    fn pid(&mut self) -> u32;
}

/// Direct, uninstrumented access to the kernel: the paper's "Native"
/// configuration.
#[derive(Debug)]
pub struct DirectOs {
    kernel: Arc<VirtualKernel>,
    pid: u32,
}

impl DirectOs {
    /// Creates a native syscall interface onto `kernel`.
    pub fn new(kernel: Arc<VirtualKernel>) -> Self {
        let pid = kernel.alloc_pid();
        DirectOs { kernel, pid }
    }

    /// The kernel this interface talks to.
    pub fn kernel(&self) -> &Arc<VirtualKernel> {
        &self.kernel
    }
}

impl Os for DirectOs {
    fn listen(&mut self, port: u16) -> OsResult<Fd> {
        self.kernel.listen(port)
    }

    fn accept(&mut self, listener: Fd) -> OsResult<Fd> {
        self.kernel.accept(listener)
    }

    fn read(&mut self, fd: Fd, max: usize) -> OsResult<Buf> {
        self.kernel.read(fd, max, None)
    }

    fn read_timeout(&mut self, fd: Fd, max: usize, timeout_ms: u64) -> OsResult<Buf> {
        self.kernel
            .read(fd, max, Some(Duration::from_millis(timeout_ms)))
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> OsResult<usize> {
        self.kernel.write(fd, data)
    }

    fn write_buf(&mut self, fd: Fd, data: Buf) -> OsResult<usize> {
        self.kernel.write_buf(fd, data)
    }

    fn close(&mut self, fd: Fd) -> OsResult<()> {
        self.kernel.close(fd)
    }

    fn epoll_create(&mut self) -> OsResult<Fd> {
        self.kernel.epoll_create()
    }

    fn epoll_ctl(&mut self, ep: Fd, op: CtlOp, fd: Fd) -> OsResult<()> {
        self.kernel.epoll_ctl(ep, op, fd)
    }

    fn epoll_wait(&mut self, ep: Fd, max: usize, timeout_ms: u64) -> OsResult<Vec<Fd>> {
        self.kernel
            .epoll_wait(ep, max, Duration::from_millis(timeout_ms))
    }

    fn fs_open(&mut self, path: &str, mode: OpenMode) -> OsResult<Fd> {
        self.kernel.fs_open(path, mode)
    }

    fn fs_unlink(&mut self, path: &str) -> OsResult<()> {
        self.kernel.fs_unlink(path)
    }

    fn fs_stat(&mut self, path: &str) -> OsResult<FileStat> {
        self.kernel.fs_stat(path)
    }

    fn fs_list(&mut self, path: &str) -> OsResult<Vec<String>> {
        self.kernel.fs_list(path)
    }

    fn fs_mkdir(&mut self, path: &str) -> OsResult<()> {
        self.kernel.fs_mkdir(path)
    }

    fn fs_rename(&mut self, from: &str, to: &str) -> OsResult<()> {
        self.kernel.fs_rename(from, to)
    }

    fn now(&mut self) -> u64 {
        self.kernel.now_nanos()
    }

    fn pid(&mut self) -> u32 {
        self.pid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_os_round_trip() {
        let kernel = VirtualKernel::new();
        let mut os = DirectOs::new(kernel.clone());
        let l = os.listen(9000).unwrap();
        let c = kernel.connect(9000).unwrap();
        let s = os.accept(l).unwrap();
        kernel.client_send(c, b"x").unwrap();
        assert_eq!(os.read(s, 8).unwrap(), b"x");
        os.write(s, b"y").unwrap();
        assert_eq!(kernel.client_recv(c, 8).unwrap(), b"y");
    }

    #[test]
    fn direct_os_is_object_safe() {
        let kernel = VirtualKernel::new();
        let mut os: Box<dyn Os> = Box::new(DirectOs::new(kernel));
        let _ = os.now();
        let _ = os.pid();
    }

    #[test]
    fn read_timeout_propagates() {
        let kernel = VirtualKernel::new();
        let mut os = DirectOs::new(kernel.clone());
        let l = os.listen(9000).unwrap();
        let _c = kernel.connect(9000).unwrap();
        let s = os.accept(l).unwrap();
        assert_eq!(
            os.read_timeout(s, 8, 10).unwrap_err(),
            crate::Errno::TimedOut
        );
    }

    #[test]
    fn pids_differ_between_instances() {
        let kernel = VirtualKernel::new();
        let mut a = DirectOs::new(kernel.clone());
        let mut b = DirectOs::new(kernel);
        assert_ne!(a.pid(), b.pid());
    }
}
