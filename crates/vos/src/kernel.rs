use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::buf::Buf;
use crate::clock::Clock;
use crate::error::{Errno, OsResult};
use crate::fd::Fd;
use crate::fs::{FileStat, MemFs, OpenMode};
use crate::poll::{CtlOp, EpollState};
use crate::stream::{StreamEnd, WaitSet};

/// Number of fd-table shards. Descriptors are distributed by
/// `fd % FD_SHARDS`, and fds are allocated sequentially, so concurrent
/// variants and workload clients — which each work a disjoint set of
/// fds — almost never contend on the same shard lock.
const FD_SHARDS: usize = 64;

/// Per-file-handle state (shared contents + private offset).
#[derive(Debug)]
struct FileHandle {
    data: crate::fs::FileData,
    offset: usize,
    mode: OpenMode,
}

#[derive(Debug)]
struct Listener {
    port: u16,
    queue: Mutex<VecDeque<Fd>>,
    /// Epoll waiters interested in this listener's accept queue.
    waiters: Arc<WaitSet>,
}

#[derive(Debug)]
enum Resource {
    Listener(Arc<Listener>),
    Stream(Arc<StreamEnd>),
    Epoll(Arc<EpollState>),
    File(Arc<Mutex<FileHandle>>),
}

impl Clone for Resource {
    fn clone(&self) -> Self {
        match self {
            Resource::Listener(l) => Resource::Listener(l.clone()),
            Resource::Stream(s) => Resource::Stream(s.clone()),
            Resource::Epoll(e) => Resource::Epoll(e.clone()),
            Resource::File(f) => Resource::File(f.clone()),
        }
    }
}

/// One fd-table slot: the resource plus the wait-set that epoll
/// instances register with to be woken on its readiness changes.
/// Streams and listeners carry their own wait-set (the resource itself
/// wakes it on writes/connects); files and epoll instances get a slot
/// wait-set that only `close` wakes.
#[derive(Debug)]
struct Entry {
    res: Resource,
    wait: Arc<WaitSet>,
}

/// The virtual kernel: owns every resource that outlives a program
/// variant.
///
/// One kernel models one machine. Server variants talk to it through an
/// [`Os`](crate::Os) implementation; workload clients use the `client_*`
/// helpers directly (clients are outside the MVE perimeter, like remote
/// machines in the paper's testbed).
///
/// All methods take `&self`; the kernel is shared as `Arc<VirtualKernel>`.
#[derive(Debug)]
pub struct VirtualKernel {
    /// The fd table, sharded by `fd % FD_SHARDS` so the per-syscall
    /// lookup doesn't serialize every thread on one mutex.
    shards: [Mutex<HashMap<Fd, Entry>>; FD_SHARDS],
    listeners: Mutex<HashMap<u16, Arc<Listener>>>,
    next_fd: AtomicU64,
    next_pid: AtomicU32,
    clock: Clock,
    fs: MemFs,
    /// `epoll_wait` calls made while the delay is armed (drives the
    /// delay schedule).
    epoll_calls: AtomicU64,
    /// Delay every Nth `epoll_wait` call; 0 disables the perturbation.
    epoll_delay_every: AtomicU64,
    /// Length of each injected readiness delay, in nanoseconds.
    epoll_delay_nanos: AtomicU64,
}

impl VirtualKernel {
    /// Boots an empty kernel.
    pub fn new() -> Arc<Self> {
        Arc::new(VirtualKernel {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            listeners: Mutex::new(HashMap::new()),
            next_fd: AtomicU64::new(3),
            next_pid: AtomicU32::new(100),
            clock: Clock::new(),
            fs: MemFs::new(),
            epoll_calls: AtomicU64::new(0),
            epoll_delay_every: AtomicU64::new(0),
            epoll_delay_nanos: AtomicU64::new(0),
        })
    }

    /// Perturbation hook: every `every`-th `epoll_wait` call stalls for
    /// `delay` before scanning readiness, shifting wakeup alignment the
    /// way a loaded host kernel would; calls are counted from the first
    /// one made while armed. `every == 0` disables it.
    /// Semantics are preserved — a stalled wait still honours its
    /// deadline and readiness set.
    pub fn set_epoll_delay(&self, every: u64, delay: Duration) {
        self.epoll_delay_nanos
            .store(delay.as_nanos() as u64, Ordering::Relaxed);
        self.epoll_delay_every.store(every, Ordering::Relaxed);
    }

    fn alloc_fd(&self) -> Fd {
        Fd::from_raw(self.next_fd.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocates a fresh logical process id.
    pub fn alloc_pid(&self) -> u32 {
        self.next_pid.fetch_add(1, Ordering::Relaxed)
    }

    /// The kernel clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Nanoseconds since boot.
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// The in-memory filesystem (for test/bench setup; servers go through
    /// the syscall surface).
    pub fn fs(&self) -> &MemFs {
        &self.fs
    }

    fn shard(&self, fd: Fd) -> &Mutex<HashMap<Fd, Entry>> {
        &self.shards[(fd.as_raw() as usize) % FD_SHARDS]
    }

    fn insert(&self, fd: Fd, res: Resource) {
        let wait = match &res {
            Resource::Stream(s) => s.waiters().clone(),
            Resource::Listener(l) => l.waiters.clone(),
            Resource::Epoll(_) | Resource::File(_) => Arc::new(WaitSet::new()),
        };
        self.shard(fd).lock().insert(fd, Entry { res, wait });
    }

    fn resource(&self, fd: Fd) -> OsResult<Resource> {
        self.shard(fd)
            .lock()
            .get(&fd)
            .map(|e| e.res.clone())
            .ok_or(Errno::BadFd)
    }

    fn wait_set(&self, fd: Fd) -> Option<Arc<WaitSet>> {
        self.shard(fd).lock().get(&fd).map(|e| e.wait.clone())
    }

    /// Live epoll registrations on `fd`'s wait-set: the epoll instances
    /// whose interest list holds `fd` (diagnostics).
    pub fn wait_registrations(&self, fd: Fd) -> OsResult<usize> {
        self.wait_set(fd).map(|w| w.len()).ok_or(Errno::BadFd)
    }

    fn epoll(&self, ep: Fd) -> OsResult<Arc<EpollState>> {
        match self.resource(ep)? {
            Resource::Epoll(e) => Ok(e),
            _ => Err(Errno::Inval),
        }
    }

    /// Times `epoll_wait` on instance `ep` was woken by descriptor
    /// activity rather than timing out. With per-fd wakeups, traffic on
    /// descriptors this instance is not watching never moves this.
    pub fn epoll_wakeups(&self, ep: Fd) -> OsResult<u64> {
        Ok(self.epoll(ep)?.wakeups())
    }

    /// Threads currently parked in `epoll_wait` on instance `ep`
    /// (diagnostics: lets tests rendezvous with a parked waiter instead
    /// of sleeping).
    pub fn epoll_waiters(&self, ep: Fd) -> OsResult<usize> {
        Ok(self.epoll(ep)?.notifier().parked())
    }

    /// Bytes buffered toward the reader of `fd` (diagnostics).
    pub fn pending_bytes(&self, fd: Fd) -> OsResult<usize> {
        match self.resource(fd)? {
            Resource::Stream(s) => Ok(s.pending()),
            _ => Err(Errno::Inval),
        }
    }

    /// Readers currently parked in a blocking `read` on `fd`
    /// (diagnostics: lets tests rendezvous with a blocked reader
    /// instead of sleeping).
    pub fn waiting_readers(&self, fd: Fd) -> OsResult<usize> {
        match self.resource(fd)? {
            Resource::Stream(s) => Ok(s.waiting_readers()),
            _ => Err(Errno::Inval),
        }
    }

    // ---- network ----------------------------------------------------

    /// Binds a listener to `port`.
    pub fn listen(&self, port: u16) -> OsResult<Fd> {
        let mut listeners = self.listeners.lock();
        if listeners.contains_key(&port) {
            return Err(Errno::AddrInUse);
        }
        let listener = Arc::new(Listener {
            port,
            queue: Mutex::new(VecDeque::new()),
            waiters: Arc::new(WaitSet::new()),
        });
        listeners.insert(port, listener.clone());
        let fd = self.alloc_fd();
        self.insert(fd, Resource::Listener(listener));
        Ok(fd)
    }

    /// Connects to the listener on `port`, returning the client-side fd.
    pub fn connect(&self, port: u16) -> OsResult<Fd> {
        let listener = self
            .listeners
            .lock()
            .get(&port)
            .cloned()
            .ok_or(Errno::ConnRefused)?;
        let (client_end, server_end) = StreamEnd::pair();
        let client_fd = self.alloc_fd();
        let server_fd = self.alloc_fd();
        self.insert(client_fd, Resource::Stream(client_end));
        self.insert(server_fd, Resource::Stream(server_end));
        listener.queue.lock().push_back(server_fd);
        listener.waiters.wake();
        Ok(client_fd)
    }

    /// Accepts a pending connection; non-blocking.
    ///
    /// # Errors
    /// `WouldBlock` if no connection is queued.
    pub fn accept(&self, listener_fd: Fd) -> OsResult<Fd> {
        let listener = match self.resource(listener_fd)? {
            Resource::Listener(l) => l,
            _ => Err(Errno::Inval)?,
        };
        let fd = listener.queue.lock().pop_front();
        fd.ok_or(Errno::WouldBlock)
    }

    /// Reads up to `max` bytes; blocks until data, EOF, or `timeout`.
    /// Works on both streams and files (files never block).
    ///
    /// Reads are zero-copy: a stream read returns a slice of the writer's
    /// own allocation whenever the read does not span chunks, and a file
    /// read returns a window of the file's frozen snapshot.
    pub fn read(&self, fd: Fd, max: usize, timeout: Option<Duration>) -> OsResult<Buf> {
        match self.resource(fd)? {
            Resource::Stream(s) => s.read(max, timeout),
            Resource::File(handle) => {
                let mut h = handle.lock();
                let mut data = h.data.lock();
                let start = h.offset.min(data.len());
                let end = start.saturating_add(max).min(data.len());
                let out = if start == end {
                    Buf::new()
                } else {
                    data.snapshot().slice(start..end)
                };
                drop(data);
                h.offset = end;
                Ok(out)
            }
            _ => Err(Errno::Inval),
        }
    }

    /// Writes `data`; returns the number of bytes written. Copies once,
    /// at this boundary, to wrap the borrowed slice in a shared buffer —
    /// callers that already hold a [`Buf`] should use
    /// [`write_buf`](Self::write_buf) instead, which copies nothing.
    pub fn write(&self, fd: Fd, data: &[u8]) -> OsResult<usize> {
        self.write_inner(fd, PayloadRef::Slice(data))
    }

    /// Writes an already-shared buffer without copying the payload: the
    /// same allocation lands in the peer's inbox (and from there in the
    /// reader's hands, and — under MVE — in the logged record).
    pub fn write_buf(&self, fd: Fd, data: Buf) -> OsResult<usize> {
        self.write_inner(fd, PayloadRef::Shared(data))
    }

    fn write_inner(&self, fd: Fd, data: PayloadRef<'_>) -> OsResult<usize> {
        match self.resource(fd)? {
            Resource::Stream(s) => s.write(data.into_buf()),
            Resource::File(handle) => {
                let data = data.as_slice();
                let mut h = handle.lock();
                if !h.mode.writable() {
                    return Err(Errno::Inval);
                }
                let mut guard = h.data.lock();
                let contents = guard.bytes_mut();
                let off = h.offset;
                if off < contents.len() {
                    let overlap = (contents.len() - off).min(data.len());
                    contents[off..off + overlap].copy_from_slice(&data[..overlap]);
                    contents.extend_from_slice(&data[overlap..]);
                } else {
                    contents.resize(off, 0);
                    contents.extend_from_slice(data);
                }
                drop(guard);
                h.offset += data.len();
                Ok(data.len())
            }
            _ => Err(Errno::Inval),
        }
    }

    /// Closes and releases a descriptor.
    pub fn close(&self, fd: Fd) -> OsResult<()> {
        let entry = self.shard(fd).lock().remove(&fd).ok_or(Errno::BadFd)?;
        match &entry.res {
            Resource::Stream(s) => s.close(),
            Resource::Listener(l) => {
                self.listeners.lock().remove(&l.port);
            }
            Resource::Epoll(_) | Resource::File(_) => {}
        }
        // Whoever was waiting on this descriptor must wake and observe
        // the close (a dead fd reports as ready so owners notice EOF).
        entry.wait.wake();
        Ok(())
    }

    // ---- epoll -------------------------------------------------------

    /// Creates an epoll instance.
    pub fn epoll_create(&self) -> OsResult<Fd> {
        let fd = self.alloc_fd();
        self.insert(fd, Resource::Epoll(Arc::new(EpollState::new())));
        Ok(fd)
    }

    /// Adds or removes interest in `fd` on epoll instance `ep`.
    ///
    /// `Add` registers the instance with `fd`'s wait-set once, and `Del`
    /// unregisters it; `epoll_wait` itself never registers.
    pub fn epoll_ctl(&self, ep: Fd, op: CtlOp, fd: Fd) -> OsResult<()> {
        let state = self.epoll(ep)?;
        let wait = self.wait_set(fd);
        let changed = match op {
            CtlOp::Add => {
                let added = state.add(fd, wait.as_deref());
                if added {
                    // Wake any in-flight wait on this instance so it
                    // rescans: the new descriptor may already be ready.
                    state.notifier().bump();
                }
                added
            }
            CtlOp::Del => state.del(fd, wait.as_deref()),
        };
        if changed {
            Ok(())
        } else {
            Err(Errno::Inval)
        }
    }

    fn fd_ready(&self, fd: Fd) -> bool {
        match self.resource(fd) {
            Ok(Resource::Stream(s)) => s.readable(),
            Ok(Resource::Listener(l)) => !l.queue.lock().is_empty(),
            Ok(_) => false,
            Err(_) => true, // closed fd: readable so the owner notices EOF
        }
    }

    fn scan_ready(&self, state: &EpollState, max: usize) -> Vec<Fd> {
        state.ready(max, |fd| self.fd_ready(*fd))
    }

    /// Waits for up to `timeout` for any registered descriptor to become
    /// readable; returns up to `max` ready descriptors in registration
    /// order. An empty vector means the wait timed out.
    ///
    /// Blocking waits park on the instance's own notifier, which
    /// `epoll_ctl(Add)` registered with exactly the descriptors in the
    /// interest list — activity on any other descriptor does not wake
    /// this call.
    pub fn epoll_wait(&self, ep: Fd, max: usize, timeout: Duration) -> OsResult<Vec<Fd>> {
        let state = self.epoll(ep)?;
        // Read the clock only for a wait that can block: a perturbed one
        // (the delay counts against its timeout) or one whose first scan
        // found nothing.
        let mut deadline = None;
        // The call counter only matters while the delay is armed, and the
        // chaos harness arms it before launch: an unperturbed wait skips
        // the shared counter.
        let every = self.epoll_delay_every.load(Ordering::Relaxed);
        if every > 0
            && self
                .epoll_calls
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(every)
        {
            let delay = Duration::from_nanos(self.epoll_delay_nanos.load(Ordering::Relaxed));
            if !delay.is_zero() {
                deadline = Some(Instant::now() + timeout);
                let seen = state.notifier().current();
                state.notifier().wait_change(seen, delay);
            }
        }
        // Fast path: something is already ready.
        let ready = self.scan_ready(&state, max);
        if !ready.is_empty() {
            return Ok(ready);
        }
        let deadline = deadline.unwrap_or_else(|| Instant::now() + timeout);
        loop {
            // Read the generation before the rescan: an event landing
            // between the rescan and the park has bumped past `seen`, so
            // `wait_change` returns at once — no lost-wakeup window.
            let seen = state.notifier().current();
            let ready = self.scan_ready(&state, max);
            if !ready.is_empty() {
                return Ok(ready);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(Vec::new());
            }
            if state.notifier().wait_change(seen, deadline - now) != seen {
                state.note_wakeup();
            }
        }
    }

    // ---- filesystem through descriptors -------------------------------

    /// Opens a path on the in-memory filesystem.
    pub fn fs_open(&self, path: &str, mode: OpenMode) -> OsResult<Fd> {
        let (data, offset) = self.fs.open(path, mode)?;
        let fd = self.alloc_fd();
        self.insert(
            fd,
            Resource::File(Arc::new(Mutex::new(FileHandle { data, offset, mode }))),
        );
        Ok(fd)
    }

    pub fn fs_unlink(&self, path: &str) -> OsResult<()> {
        self.fs.unlink(path)
    }

    pub fn fs_stat(&self, path: &str) -> OsResult<FileStat> {
        self.fs.stat(path)
    }

    pub fn fs_list(&self, path: &str) -> OsResult<Vec<String>> {
        self.fs.list(path)
    }

    pub fn fs_mkdir(&self, path: &str) -> OsResult<()> {
        self.fs.mkdir(path)
    }

    pub fn fs_rename(&self, from: &str, to: &str) -> OsResult<()> {
        self.fs.rename(from, to)
    }

    // ---- client-side helpers ------------------------------------------

    /// Client-side send (clients sit outside the MVE perimeter).
    pub fn client_send(&self, fd: Fd, data: &[u8]) -> OsResult<usize> {
        self.write(fd, data)
    }

    /// Client-side blocking receive.
    pub fn client_recv(&self, fd: Fd, max: usize) -> OsResult<Buf> {
        self.read(fd, max, None)
    }

    /// Client-side receive with a timeout.
    pub fn client_recv_timeout(&self, fd: Fd, max: usize, timeout: Duration) -> OsResult<Buf> {
        self.read(fd, max, Some(timeout))
    }

    /// Number of live resources (leak checks in tests).
    pub fn resource_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

/// A write payload that is either a borrowed slice (copied once at the
/// stream boundary) or an already-shared buffer (never copied).
enum PayloadRef<'a> {
    Slice(&'a [u8]),
    Shared(Buf),
}

impl PayloadRef<'_> {
    fn as_slice(&self) -> &[u8] {
        match self {
            PayloadRef::Slice(s) => s,
            PayloadRef::Shared(b) => b.as_slice(),
        }
    }

    fn into_buf(self) -> Buf {
        match self {
            PayloadRef::Slice(s) => Buf::copy_from_slice(s),
            PayloadRef::Shared(b) => b,
        }
    }
}

/// An `Arc<VirtualKernel>` coerces to `Arc<dyn obs::TimeSource>`, so
/// layers that hold a kernel handle (the flight recorder, the
/// controller's metrics) can time against the kernel clock directly.
impl obs::TimeSource for VirtualKernel {
    fn now_nanos(&self) -> u64 {
        VirtualKernel::now_nanos(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Yields until a thread is parked in `epoll_wait` on `ep`; panics
    /// after 10 s, so a wait that never parks fails instead of hanging.
    fn await_epoll_waiter(k: &VirtualKernel, ep: Fd) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while k.epoll_waiters(ep).unwrap() == 0 {
            assert!(Instant::now() < give_up, "epoll_wait never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn handoff_waits_leave_no_parked_waiter() {
        // A client and a server thread ping-pong as `NetCore` serves:
        // epoll_wait, read_timeout, write. Most waits on both sides end
        // in the spin phase; none may stay counted as parked.
        let k = VirtualKernel::new();
        let l = k.listen(80).unwrap();
        let c = k.connect(80).unwrap();
        let s = k.accept(l).unwrap();
        let ep = k.epoll_create().unwrap();
        k.epoll_ctl(ep, CtlOp::Add, s).unwrap();
        let k2 = k.clone();
        let server = std::thread::spawn(move || {
            let mut served = 0;
            while served < 2_000 {
                for fd in k2.epoll_wait(ep, 16, Duration::from_millis(10)).unwrap() {
                    let req = k2.read(fd, 4096, Some(Duration::from_millis(20))).unwrap();
                    k2.write_buf(fd, req).unwrap();
                    served += 1;
                }
            }
        });
        for i in 0..2_000u32 {
            k.client_send(c, &i.to_le_bytes()).unwrap();
            assert_eq!(k.client_recv(c, 64).unwrap(), &i.to_le_bytes()[..]);
        }
        server.join().unwrap();
        assert_eq!(k.epoll_waiters(ep).unwrap(), 0);
        assert_eq!(k.waiting_readers(s).unwrap(), 0);
        assert_eq!(k.waiting_readers(c).unwrap(), 0);
    }

    #[test]
    fn listen_connect_accept_round_trip() {
        let k = VirtualKernel::new();
        let l = k.listen(80).unwrap();
        let c = k.connect(80).unwrap();
        let s = k.accept(l).unwrap();
        k.client_send(c, b"req").unwrap();
        assert_eq!(k.read(s, 16, None).unwrap(), b"req");
        k.write(s, b"resp").unwrap();
        assert_eq!(k.client_recv(c, 16).unwrap(), b"resp");
    }

    #[test]
    fn double_listen_is_addr_in_use() {
        let k = VirtualKernel::new();
        k.listen(80).unwrap();
        assert_eq!(k.listen(80).unwrap_err(), Errno::AddrInUse);
    }

    #[test]
    fn connect_without_listener_refused() {
        let k = VirtualKernel::new();
        assert_eq!(k.connect(81).unwrap_err(), Errno::ConnRefused);
    }

    #[test]
    fn accept_empty_would_block() {
        let k = VirtualKernel::new();
        let l = k.listen(80).unwrap();
        assert_eq!(k.accept(l).unwrap_err(), Errno::WouldBlock);
    }

    #[test]
    fn close_listener_frees_port() {
        let k = VirtualKernel::new();
        let l = k.listen(80).unwrap();
        k.close(l).unwrap();
        k.listen(80).unwrap();
    }

    #[test]
    fn epoll_reports_readiness_in_registration_order() {
        let k = VirtualKernel::new();
        let l = k.listen(80).unwrap();
        let c1 = k.connect(80).unwrap();
        let s1 = k.accept(l).unwrap();
        let c2 = k.connect(80).unwrap();
        let s2 = k.accept(l).unwrap();

        let ep = k.epoll_create().unwrap();
        k.epoll_ctl(ep, CtlOp::Add, s2).unwrap();
        k.epoll_ctl(ep, CtlOp::Add, s1).unwrap();

        k.client_send(c1, b"a").unwrap();
        k.client_send(c2, b"b").unwrap();
        let ready = k.epoll_wait(ep, 8, Duration::from_millis(100)).unwrap();
        assert_eq!(ready, vec![s2, s1], "registration order, not fd order");
    }

    #[test]
    fn epoll_wait_times_out_empty() {
        let k = VirtualKernel::new();
        let ep = k.epoll_create().unwrap();
        let l = k.listen(80).unwrap();
        k.epoll_ctl(ep, CtlOp::Add, l).unwrap();
        let ready = k.epoll_wait(ep, 8, Duration::from_millis(10)).unwrap();
        assert!(ready.is_empty());
        assert_eq!(k.epoll_wakeups(ep).unwrap(), 0, "timeout is not a wakeup");
    }

    #[test]
    fn epoll_wakes_on_connect() {
        let k = VirtualKernel::new();
        let l = k.listen(80).unwrap();
        let ep = k.epoll_create().unwrap();
        k.epoll_ctl(ep, CtlOp::Add, l).unwrap();
        let k2 = k.clone();
        let t = std::thread::spawn(move || k2.epoll_wait(ep, 8, Duration::from_secs(5)).unwrap());
        // Deterministic hand-off: once the waiter is parked (it counts
        // itself in under the notifier lock), the connect's bump must
        // wake it.
        await_epoll_waiter(&k, ep);
        let _c = k.connect(80).unwrap();
        assert_eq!(t.join().unwrap(), vec![l]);
        assert!(k.epoll_wakeups(ep).unwrap() >= 1);
    }

    #[test]
    fn epoll_delay_counts_only_the_calls_made_while_armed() {
        let k = VirtualKernel::new();
        let l = k.listen(80).unwrap();
        let ep = k.epoll_create().unwrap();
        k.epoll_ctl(ep, CtlOp::Add, l).unwrap();
        let _c = k.connect(80).unwrap();
        // An unarmed wait leaves the schedule alone.
        assert_eq!(k.epoll_wait(ep, 8, Duration::ZERO).unwrap(), [l]);
        let delay = Duration::from_millis(30);
        k.set_epoll_delay(2, delay);
        let delayed: Vec<u32> = (0..5)
            .filter(|_| {
                let begin = Instant::now();
                assert_eq!(k.epoll_wait(ep, 8, Duration::ZERO).unwrap(), [l]);
                begin.elapsed() >= delay
            })
            .collect();
        assert_eq!(delayed, [0, 2, 4]);
    }

    #[test]
    fn epoll_wakeups_target_only_watched_fds() {
        let k = VirtualKernel::new();
        let l = k.listen(80).unwrap();
        let c_a = k.connect(80).unwrap();
        let s_a = k.accept(l).unwrap();
        let _c_b = k.connect(80).unwrap();
        let s_b = k.accept(l).unwrap();

        let ep_b = k.epoll_create().unwrap();
        k.epoll_ctl(ep_b, CtlOp::Add, s_b).unwrap();
        // Park a waiter on B's connection, then generate traffic on A's.
        let k2 = k.clone();
        let t =
            std::thread::spawn(move || k2.epoll_wait(ep_b, 8, Duration::from_millis(50)).unwrap());
        while k.epoll_waiters(ep_b).unwrap() == 0 && !t.is_finished() {
            std::thread::yield_now();
        }
        for _ in 0..10 {
            k.client_send(c_a, b"noise").unwrap();
            let _ = k.read(s_a, 64, None).unwrap();
        }
        assert_eq!(t.join().unwrap(), Vec::<Fd>::new(), "B never became ready");
        assert_eq!(
            k.epoll_wakeups(ep_b).unwrap(),
            0,
            "traffic on fd A must not wake a waiter on fd B"
        );
    }

    #[test]
    fn epoll_ctl_add_during_wait_is_picked_up() {
        let k = VirtualKernel::new();
        let l = k.listen(80).unwrap();
        let c = k.connect(80).unwrap();
        let s = k.accept(l).unwrap();
        let ep = k.epoll_create().unwrap();
        // Start waiting on an instance that watches only the listener.
        k.epoll_ctl(ep, CtlOp::Add, l).unwrap();
        let k2 = k.clone();
        let t = std::thread::spawn(move || k2.epoll_wait(ep, 8, Duration::from_secs(5)).unwrap());
        await_epoll_waiter(&k, ep);
        // Make the stream ready first, then add it: the Add must wake the
        // in-flight wait so it rescans and observes the readiness.
        k.client_send(c, b"x").unwrap();
        k.epoll_ctl(ep, CtlOp::Add, s).unwrap();
        assert_eq!(t.join().unwrap(), vec![s]);
    }

    #[test]
    fn epoll_ctl_registers_once_and_waits_do_not() {
        let k = VirtualKernel::new();
        let l = k.listen(80).unwrap();
        let ep = k.epoll_create().unwrap();
        k.epoll_ctl(ep, CtlOp::Add, l).unwrap();
        assert_eq!(k.wait_registrations(l).unwrap(), 1, "registered at Add");
        for _ in 0..3 {
            assert!(k.epoll_wait(ep, 8, Duration::ZERO).unwrap().is_empty());
        }
        assert_eq!(k.wait_registrations(l).unwrap(), 1);
        assert_eq!(k.epoll_waiters(ep).unwrap(), 0);
    }

    #[test]
    fn epoll_ctl_del_stops_wakeups() {
        let k = VirtualKernel::new();
        let l = k.listen(80).unwrap();
        let c = k.connect(80).unwrap();
        let s = k.accept(l).unwrap();
        let ep = k.epoll_create().unwrap();
        k.epoll_ctl(ep, CtlOp::Add, l).unwrap();
        k.epoll_ctl(ep, CtlOp::Add, s).unwrap();
        k.epoll_ctl(ep, CtlOp::Del, s).unwrap();
        assert_eq!(k.wait_registrations(s).unwrap(), 0, "Del unregisters");
        let k2 = k.clone();
        let t =
            std::thread::spawn(move || k2.epoll_wait(ep, 8, Duration::from_millis(50)).unwrap());
        while k.epoll_waiters(ep).unwrap() == 0 && !t.is_finished() {
            std::thread::yield_now();
        }
        for _ in 0..10 {
            k.client_send(c, b"noise").unwrap();
            let _ = k.read(s, 64, None).unwrap();
        }
        assert_eq!(t.join().unwrap(), Vec::<Fd>::new());
        assert_eq!(
            k.epoll_wakeups(ep).unwrap(),
            0,
            "traffic on a deleted fd must not wake the instance"
        );
    }

    #[test]
    fn epoll_ctl_del_unknown_is_inval() {
        let k = VirtualKernel::new();
        let ep = k.epoll_create().unwrap();
        assert_eq!(
            k.epoll_ctl(ep, CtlOp::Del, Fd::from_raw(999)).unwrap_err(),
            Errno::Inval
        );
    }

    #[test]
    fn file_read_write_through_fds() {
        let k = VirtualKernel::new();
        let w = k.fs_open("/f", OpenMode::Write).unwrap();
        k.write(w, b"hello world").unwrap();
        k.close(w).unwrap();
        let r = k.fs_open("/f", OpenMode::Read).unwrap();
        assert_eq!(k.read(r, 5, None).unwrap(), b"hello");
        assert_eq!(k.read(r, 64, None).unwrap(), b" world");
        assert_eq!(k.read(r, 64, None).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn file_write_at_offset_overwrites() {
        let k = VirtualKernel::new();
        let w = k.fs_open("/f", OpenMode::Write).unwrap();
        k.write(w, b"aaaa").unwrap();
        k.close(w).unwrap();
        // Reopen truncates in Write mode; use Append to extend.
        let a = k.fs_open("/f", OpenMode::Append).unwrap();
        k.write(a, b"bb").unwrap();
        k.close(a).unwrap();
        assert_eq!(k.fs().read_file("/f").unwrap(), b"aaaabb");
    }

    fn read_whole(k: &VirtualKernel, path: &str) -> Buf {
        let fd = k.fs_open(path, OpenMode::Read).unwrap();
        let out = k.read(fd, usize::MAX, None).unwrap();
        k.close(fd).unwrap();
        out
    }

    #[test]
    fn reads_of_an_unchanged_file_share_one_snapshot() {
        let k = VirtualKernel::new();
        k.fs().write_file("/f", b"hello world").unwrap();
        let a = k.fs_open("/f", OpenMode::Read).unwrap();
        let b = k.fs_open("/f", OpenMode::Read).unwrap();
        let head = k.read(a, 5, None).unwrap();
        let tail = k.read(a, 64, None).unwrap();
        let whole = k.read(b, 64, None).unwrap();
        assert_eq!((&head[..], &tail[..]), (&b"hello"[..], &b" world"[..]));
        assert!(head.same_storage(&tail), "one handle reads one snapshot");
        assert!(head.same_storage(&whole), "two handles read one snapshot");
    }

    #[test]
    fn mutations_are_visible_and_never_touch_earlier_reads() {
        let k = VirtualKernel::new();
        k.fs().write_file("/f", b"aaaa").unwrap();
        let before = read_whole(&k, "/f");

        // Write through another handle: open(Write) truncates first.
        let w = k.fs_open("/f", OpenMode::Write).unwrap();
        assert_eq!(read_whole(&k, "/f"), b"");
        k.write(w, b"bb").unwrap();
        let written = read_whole(&k, "/f");
        assert_eq!(written, b"bb");
        assert!(!written.same_storage(&before));

        // Append through a third handle.
        let a = k.fs_open("/f", OpenMode::Append).unwrap();
        k.write_buf(a, Buf::from(b"cc")).unwrap();
        assert_eq!(read_whole(&k, "/f"), b"bbcc");

        // Replace through the filesystem API.
        k.fs().write_file("/f", b"dd").unwrap();
        assert_eq!(read_whole(&k, "/f"), b"dd");

        // Truncate by opening for writing.
        k.close(k.fs_open("/f", OpenMode::Write).unwrap()).unwrap();
        assert_eq!(read_whole(&k, "/f"), b"");

        assert_eq!(before, b"aaaa", "a returned Buf keeps its bytes");
        assert_eq!(written, b"bb");
    }

    #[test]
    fn read_on_closed_fd_is_badfd() {
        let k = VirtualKernel::new();
        let l = k.listen(80).unwrap();
        let c = k.connect(80).unwrap();
        let s = k.accept(l).unwrap();
        k.close(s).unwrap();
        assert_eq!(k.read(s, 1, None).unwrap_err(), Errno::BadFd);
        // Client observes EOF.
        assert_eq!(k.client_recv(c, 1).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn write_buf_shares_the_payload_end_to_end() {
        let k = VirtualKernel::new();
        let l = k.listen(80).unwrap();
        let c = k.connect(80).unwrap();
        let s = k.accept(l).unwrap();
        let payload = Buf::from_vec(b"zero-copy payload".to_vec());
        let src_ptr = payload.as_slice().as_ptr();
        k.write_buf(c, payload).unwrap();
        let got = k.read(s, 64, None).unwrap();
        assert_eq!(got, b"zero-copy payload");
        assert_eq!(
            got.as_slice().as_ptr(),
            src_ptr,
            "the reader sees the writer's own allocation"
        );
    }

    #[test]
    fn pids_are_unique() {
        let k = VirtualKernel::new();
        let a = k.alloc_pid();
        let b = k.alloc_pid();
        assert_ne!(a, b);
    }

    #[test]
    fn fd_numbers_never_reused() {
        let k = VirtualKernel::new();
        let a = k.fs_open("/a", OpenMode::Write).unwrap();
        k.close(a).unwrap();
        let b = k.fs_open("/b", OpenMode::Write).unwrap();
        assert_ne!(a, b);
    }
}
