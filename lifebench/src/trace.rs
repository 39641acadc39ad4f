//! Outside-in tracing: a timing adapter around any [`vos::Os`], step
//! spans around [`dsu::DsuApp::step`], and the arithmetic that turns
//! spans into per-layer self times.
//!
//! Spans stay in memory; [`dump`] writes a bounded prefix of them out
//! when the run ends. Every span carries a name, start, end, parent and
//! the request id of the client operation it served.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use vos::{Buf, CtlOp, Fd, FileStat, OpenMode, Os, OsResult};

use crate::load::Inflight;
use crate::model::CONNS;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Starts the benchmark clock; call first thing in `main`.
pub fn start_clock() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds on the benchmark clock.
pub fn now_ns() -> u64 {
    start_clock().elapsed().as_nanos() as u64
}

/// Which interposition layer an adapter wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `DirectOs`: the kernel with no interposition.
    Vos,
    /// `VariantOs` in single-leader mode.
    Single,
    /// `VariantOs` leading a follower.
    Leader,
    /// `VariantOs` replaying the leader's records.
    Follower,
}

/// What a span timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Step,
    Read,
    Write,
    /// `epoll_wait` that returned ready descriptors.
    EpollWait,
    /// `epoll_wait` that timed out with none.
    EpollIdle,
    Other,
}

impl Call {
    pub const COUNT: usize = 6;
    const ALL: [Call; Call::COUNT] = [
        Call::Step,
        Call::Read,
        Call::Write,
        Call::EpollWait,
        Call::EpollIdle,
        Call::Other,
    ];

    fn name(self) -> &'static str {
        match self {
            Call::Step => "app.step",
            Call::Read => "read",
            Call::Write => "write",
            Call::EpollWait => "epoll_wait",
            Call::EpollIdle => "epoll_idle",
            Call::Other => "other",
        }
    }
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Vos => "vos",
            Layer::Single => "mve.single",
            Layer::Leader => "mve.leader",
            Layer::Follower => "mve.follower",
        }
    }
}

/// One timed interval. `parent` is the 1-based index of the enclosing
/// span in the same buffer (0 for a root).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub call: Call,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
    pub req: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent > 0 {
            let p = s.parent as usize - 1;
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}

/// Bound on call spans kept per buffer; counts keep accumulating past
/// it. Step spans are always kept, since the unattributed-time
/// arithmetic needs every one of them.
const MAX_SPANS: usize = 1 << 20;

/// Per-call counters of one adapter.
#[derive(Clone, Debug, Default)]
pub struct CallStats {
    pub calls: [u64; Call::COUNT],
    pub ns: [u64; Call::COUNT],
    pub bytes: u64,
    pub idle_steps: u64,
    /// Time inside steps spent in calls through this adapter.
    pub ns_in_steps: u64,
}

impl CallStats {
    pub fn calls(&self, call: Call) -> u64 {
        self.calls[call as usize]
    }

    pub fn ns(&self, call: Call) -> u64 {
        self.ns[call as usize]
    }

    /// Mean nanoseconds per call of this kind (0 when there were none).
    pub fn mean_ns(&self, call: Call) -> f64 {
        ratio(self.ns(call) as f64, self.calls(call) as f64)
    }

    /// Calls through the adapter (steps excluded).
    pub fn syscalls(&self) -> u64 {
        Call::ALL[1..].iter().map(|&c| self.calls(c)).sum()
    }

    /// Mean nanoseconds per call, leaving out `epoll_wait`, which mostly
    /// waits for the next request rather than doing work.
    pub fn work_call_ns(&self) -> f64 {
        let kinds = [Call::Read, Call::Write, Call::Other];
        let ns: u64 = kinds.iter().map(|&c| self.ns(c)).sum();
        let calls: u64 = kinds.iter().map(|&c| self.calls(c)).sum();
        ratio(ns as f64, calls as f64)
    }

    /// Step time not spent in calls through the adapter.
    pub fn app_self_ns(&self) -> u64 {
        self.ns(Call::Step).saturating_sub(self.ns_in_steps)
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Server-side descriptor of each client connection, learned from the
/// order in which the server accepts them (clients connect one at a
/// time, so accept order is connection order).
#[derive(Debug, Default)]
pub struct ConnMap {
    fds: [AtomicU64; CONNS],
}

impl ConnMap {
    fn accepted(&self, fd: Fd) {
        for slot in &self.fds {
            if slot
                .compare_exchange(0, fd.as_raw() + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
        }
    }

    pub fn count(&self) -> usize {
        self.fds
            .iter()
            .filter(|f| f.load(Ordering::SeqCst) != 0)
            .count()
    }

    fn conn_of(&self, fd: Fd) -> Option<usize> {
        self.fds
            .iter()
            .position(|f| f.load(Ordering::Relaxed) == fd.as_raw() + 1)
    }
}

/// A timing adapter around an [`Os`]: when on, every call is timed,
/// counted and recorded as a span under the current step.
pub struct Timed<O> {
    inner: O,
    layer: Layer,
    on: bool,
    spans: Vec<Span>,
    dropped: u64,
    /// 1-based index of the open step span (0 = none or not kept).
    step: u32,
    in_step: bool,
    step_start: u64,
    stats: CallStats,
    conns: Arc<ConnMap>,
    inflight: Inflight,
}

impl<O: Os> Timed<O> {
    pub fn new(inner: O, layer: Layer, conns: Arc<ConnMap>, inflight: Inflight) -> Self {
        Timed {
            inner,
            layer,
            on: false,
            spans: Vec::new(),
            dropped: 0,
            step: 0,
            in_step: false,
            step_start: 0,
            stats: CallStats::default(),
            conns,
            inflight,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn layer(&self) -> Layer {
        self.layer
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the spans and counters recorded so far, leaving both empty.
    pub fn harvest(&mut self) -> (Vec<Span>, CallStats, u64) {
        let dropped = std::mem::take(&mut self.dropped);
        (
            std::mem::take(&mut self.spans),
            std::mem::take(&mut self.stats),
            dropped,
        )
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() < MAX_SPANS || span.call == Call::Step {
            self.spans.push(span);
            self.spans.len() as u32
        } else {
            self.dropped += 1;
            0
        }
    }

    /// Opens the span of one application step.
    pub fn begin_step(&mut self) {
        if !self.on {
            return;
        }
        self.step_start = now_ns();
        self.in_step = true;
        self.step = self.push(Span {
            call: Call::Step,
            parent: 0,
            start: self.step_start,
            end: self.step_start,
            req: 0,
        });
    }

    /// Closes it; `idle` when the step found nothing to do.
    pub fn end_step(&mut self, idle: bool) {
        if !self.on {
            return;
        }
        let end = now_ns();
        self.stats.calls[Call::Step as usize] += 1;
        self.stats.ns[Call::Step as usize] += end.saturating_sub(self.step_start);
        self.stats.idle_steps += idle as u64;
        if self.step > 0 {
            self.spans[self.step as usize - 1].end = end;
        }
        self.step = 0;
        self.in_step = false;
    }

    fn note(&mut self, call: Call, start: u64, fd: Option<Fd>, bytes: u64) {
        let end = now_ns();
        let i = call as usize;
        self.stats.calls[i] += 1;
        self.stats.ns[i] += end - start;
        self.stats.bytes += bytes;
        if self.in_step {
            self.stats.ns_in_steps += end - start;
        }
        let req = fd
            .and_then(|fd| self.conns.conn_of(fd))
            .map_or(0, |c| self.inflight.of(c));
        if req != 0 && self.step > 0 {
            let step = &mut self.spans[self.step as usize - 1];
            if step.req == 0 {
                step.req = req;
            }
        }
        self.push(Span {
            call,
            parent: self.step,
            start,
            end,
            req,
        });
    }
}

/// Times one call when the adapter is on.
macro_rules! timed {
    ($self:ident, $call:expr, $fd:expr, $op:expr, $bytes:expr) => {{
        if !$self.on {
            return $op;
        }
        let start = now_ns();
        let ret = $op;
        let bytes: u64 = $bytes(&ret);
        $self.note($call(&ret), start, $fd, bytes);
        ret
    }};
}

fn none<T>(_: &T) -> u64 {
    0
}

fn other<T>(_: &T) -> Call {
    Call::Other
}

impl<O: Os> Os for Timed<O> {
    fn listen(&mut self, port: u16) -> OsResult<Fd> {
        timed!(self, other, None, self.inner.listen(port), none)
    }

    fn accept(&mut self, listener: Fd) -> OsResult<Fd> {
        let ret = self.inner.accept(listener);
        if let Ok(fd) = ret {
            self.conns.accepted(fd);
        }
        ret
    }

    fn read(&mut self, fd: Fd, max: usize) -> OsResult<Buf> {
        timed!(
            self,
            |_: &_| Call::Read,
            Some(fd),
            self.inner.read(fd, max),
            |r: &OsResult<Buf>| r.as_ref().map_or(0, |b| b.len() as u64)
        )
    }

    fn read_timeout(&mut self, fd: Fd, max: usize, timeout_ms: u64) -> OsResult<Buf> {
        timed!(
            self,
            |_: &_| Call::Read,
            Some(fd),
            self.inner.read_timeout(fd, max, timeout_ms),
            |r: &OsResult<Buf>| r.as_ref().map_or(0, |b| b.len() as u64)
        )
    }

    fn write(&mut self, fd: Fd, data: &[u8]) -> OsResult<usize> {
        timed!(
            self,
            |_: &_| Call::Write,
            Some(fd),
            self.inner.write(fd, data),
            |r: &OsResult<usize>| *r.as_ref().unwrap_or(&0) as u64
        )
    }

    fn write_buf(&mut self, fd: Fd, data: Buf) -> OsResult<usize> {
        timed!(
            self,
            |_: &_| Call::Write,
            Some(fd),
            self.inner.write_buf(fd, data),
            |r: &OsResult<usize>| *r.as_ref().unwrap_or(&0) as u64
        )
    }

    fn close(&mut self, fd: Fd) -> OsResult<()> {
        timed!(self, other, Some(fd), self.inner.close(fd), none)
    }

    fn epoll_create(&mut self) -> OsResult<Fd> {
        timed!(self, other, None, self.inner.epoll_create(), none)
    }

    fn epoll_ctl(&mut self, ep: Fd, op: CtlOp, fd: Fd) -> OsResult<()> {
        timed!(self, other, None, self.inner.epoll_ctl(ep, op, fd), none)
    }

    fn epoll_wait(&mut self, ep: Fd, max: usize, timeout_ms: u64) -> OsResult<Vec<Fd>> {
        timed!(
            self,
            |r: &OsResult<Vec<Fd>>| match r {
                Ok(fds) if !fds.is_empty() => Call::EpollWait,
                _ => Call::EpollIdle,
            },
            None,
            self.inner.epoll_wait(ep, max, timeout_ms),
            none
        )
    }

    fn fs_open(&mut self, path: &str, mode: OpenMode) -> OsResult<Fd> {
        timed!(self, other, None, self.inner.fs_open(path, mode), none)
    }

    fn fs_unlink(&mut self, path: &str) -> OsResult<()> {
        timed!(self, other, None, self.inner.fs_unlink(path), none)
    }

    fn fs_stat(&mut self, path: &str) -> OsResult<FileStat> {
        timed!(self, other, None, self.inner.fs_stat(path), none)
    }

    fn fs_list(&mut self, path: &str) -> OsResult<Vec<String>> {
        timed!(self, other, None, self.inner.fs_list(path), none)
    }

    fn fs_mkdir(&mut self, path: &str) -> OsResult<()> {
        timed!(self, other, None, self.inner.fs_mkdir(path), none)
    }

    fn fs_rename(&mut self, from: &str, to: &str) -> OsResult<()> {
        timed!(self, other, None, self.inner.fs_rename(from, to), none)
    }

    fn now(&mut self) -> u64 {
        timed!(self, other, None, self.inner.now(), none)
    }

    fn pid(&mut self) -> u32 {
        timed!(self, other, None, self.inner.pid(), none)
    }
}

/// A client operation's own, non-waiting time: from its start to the
/// moment it blocked for the reply, and from the reply to its end.
#[derive(Clone, Copy, Debug)]
pub struct ClientOp {
    pub start: u64,
    pub wait_start: u64,
    pub wait_end: u64,
    pub end: u64,
}

/// Unattributed time of each operation: the part of `[start, end]`
/// covered neither by the client's own non-waiting time nor by any
/// server step. `steps` must be sorted by start and disjoint (they come
/// from one thread).
pub fn unattributed(op: &ClientOp, steps: &[(u64, u64)]) -> u64 {
    let total = op.end.saturating_sub(op.start);
    let own = [(op.start, op.wait_start), (op.wait_end, op.end)];
    let first = steps.partition_point(|&(_, end)| end <= op.start);
    let mut covered = 0u64;
    let mut overlap_own = 0u64;
    for &(s, e) in &steps[first..] {
        if s >= op.end {
            break;
        }
        let (s, e) = (s.max(op.start), e.min(op.end));
        covered += e.saturating_sub(s);
        for &(os, oe) in &own {
            overlap_own += e.min(oe).saturating_sub(s.max(os));
        }
    }
    let own_len: u64 = own.iter().map(|&(s, e)| e.saturating_sub(s)).sum();
    total.saturating_sub(covered + own_len - overlap_own.min(own_len))
}

/// Writes up to `limit` spans per buffer as tab-separated lines; each
/// buffer is one thread's spans through an adapter of `layer`.
pub fn dump(
    path: &std::path::Path,
    buffers: &[(String, Layer, Vec<Span>)],
    limit: usize,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tindex\tparent\tname\tstart_ns\tend_ns\treq")?;
    for (thread, layer, spans) in buffers {
        for (i, s) in spans.iter().take(limit).enumerate() {
            let name = match s.call {
                Call::Step => s.call.name().to_string(),
                call => format!("{}.{}", layer.name(), call.name()),
            };
            writeln!(
                out,
                "{thread}\t{}\t{}\t{name}\t{}\t{}\t{:#x}",
                i + 1,
                s.parent,
                s.start,
                s.end,
                s.req
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(call: Call, parent: u32, start: u64, end: u64) -> Span {
        Span {
            call,
            parent,
            start,
            end,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step [0,100] > read [10,30], write [40,60] > (nested) other [45,50]
        let spans = [
            span(Call::Step, 0, 0, 100),
            span(Call::Read, 1, 10, 30),
            span(Call::Write, 1, 40, 60),
            span(Call::Other, 3, 45, 50),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 15, 5]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].dur(), "self times partition the root");
    }

    #[test]
    fn unattributed_is_what_neither_side_covers() {
        let op = ClientOp {
            start: 0,
            wait_start: 10,
            wait_end: 90,
            end: 100,
        };
        // Steps cover [5,40] and [60,95]: gaps [40,60] stay unattributed.
        assert_eq!(unattributed(&op, &[(5, 40), (60, 95)]), 20);
        // No server activity: only the wait is unattributed.
        assert_eq!(unattributed(&op, &[]), 80);
        // Steps before and after the op do not count.
        assert_eq!(unattributed(&op, &[(0, 0), (100, 200)]), 80);
        assert_eq!(unattributed(&op, &[(0, 100)]), 0);
    }

    #[test]
    fn adapter_times_calls_under_the_open_step() {
        let kernel = vos::VirtualKernel::new();
        let mut os = Timed::new(
            vos::DirectOs::new(kernel.clone()),
            Layer::Vos,
            Arc::new(ConnMap::default()),
            Inflight::default(),
        );
        os.set_on(true);
        let l = os.listen(7000).unwrap();
        let c = kernel.connect(7000).unwrap();
        let s = os.accept(l).unwrap();
        kernel.client_send(c, b"ping").unwrap();
        os.begin_step();
        assert_eq!(os.read(s, 16).unwrap(), b"ping");
        os.write(s, b"pong").unwrap();
        os.end_step(false);
        let (spans, stats, dropped) = os.harvest();
        assert_eq!(dropped, 0);
        assert_eq!(stats.calls(Call::Read), 1);
        assert_eq!(stats.calls(Call::Write), 1);
        assert_eq!(stats.bytes, 8);
        let step = spans.iter().position(|s| s.call == Call::Step).unwrap() as u32 + 1;
        assert!(spans
            .iter()
            .filter(|s| matches!(s.call, Call::Read | Call::Write))
            .all(|s| s.parent == step));
        assert_eq!(stats.app_self_ns(), self_times(&spans)[step as usize - 1]);
    }
}
