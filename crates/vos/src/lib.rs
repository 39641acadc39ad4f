//! Virtual operating-system substrate for the MVEDSUA reproduction.
//!
//! The original MVEDSUA system (ASPLOS 2019) interposes on real Linux
//! system calls with the Varan MVE engine. This crate provides the
//! equivalent interposition boundary as a library: a [`VirtualKernel`]
//! that owns sockets, listeners, epoll instances and an in-memory
//! filesystem, and an [`Os`] trait that application code calls instead of
//! libc. The MVE layer (`mvedsua-mve`) supplies alternative [`Os`]
//! implementations that log to or replay from a ring buffer; this crate
//! supplies [`DirectOs`], which talks straight to the kernel.
//!
//! Everything in the kernel outlives any single program variant, exactly
//! like real kernel objects outlive a crashed process: client connections
//! keep working while the MVE layer kills and replaces server variants.
//!
//! Blocking calls, a stream read and `epoll_wait`, block one way: each
//! waits on a `WaitCell`, a value under a mutex with a condvar. A wait
//! polls for up to 10 µs, about what a park and its wake cost in wall
//! time, yielding between polls (a waiter whose recent polls kept
//! running out skips the next few); then it parks, and a wake-up costs
//! a futex syscall only when a thread is parked. An epoll instance is
//! registered with each fd's wait set once, at `epoll_ctl(Add)`. A peer
//! that answers within the spin costs neither a park nor a wake.
//! `docs/vos.md` gives the lost-wakeup argument.
//!
//! # Example
//!
//! ```
//! use vos::{VirtualKernel, Os, DirectOs};
//!
//! # fn main() -> Result<(), vos::Errno> {
//! let kernel = VirtualKernel::new();
//! let listener = kernel.listen(4242)?;
//!
//! // A "client" connects from another thread in real use; here, inline.
//! let client = kernel.connect(4242)?;
//!
//! let mut os = DirectOs::new(kernel.clone());
//! let conn = os.accept(listener)?;
//! kernel.client_send(client, b"PING\r\n")?;
//! let req = os.read(conn, 64)?;
//! assert_eq!(&req, b"PING\r\n");
//! os.write(conn, b"PONG\r\n")?;
//! assert_eq!(kernel.client_recv(client, 64)?, b"PONG\r\n");
//! # Ok(())
//! # }
//! ```

mod buf;
mod clock;
mod error;
mod fd;
mod fs;
mod kernel;
mod os;
mod poll;
mod stream;
mod syscall;

pub use buf::Buf;
pub use clock::Clock;
pub use error::{Errno, OsResult};
pub use fd::Fd;
pub use fs::{FileStat, MemFs, NodeKind, OpenMode};
pub use kernel::VirtualKernel;
pub use os::{DirectOs, Os};
pub use poll::CtlOp;
pub use syscall::{SysRet, Syscall, SyscallKind};
