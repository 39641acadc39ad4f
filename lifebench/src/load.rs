//! The closed-loop load generator: one thread per connection, each
//! sending its next request only after the previous reply was checked.
//!
//! The controller steers every client through numbered phases; each
//! client files an operation's latency under the phase it started in.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vos::{Errno, Fd, OsResult, VirtualKernel};

use crate::model::{KvModel, Proto, Workload, CONNS};
use crate::trace::now_ns;

/// Longest wait for one reply before the operation counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(10);
/// Largest read a client makes at once. Servers write in 8 KiB pieces,
/// so most reads take a whole piece without copying; larger reads would
/// coalesce pieces into fresh allocations and make the client's own
/// memory churn part of `rss_peak_mb`.
const RECV_CHUNK: usize = 8 * 1024;

/// Phases a client can be told to run in. Measurement phases are small
/// numbers; `PAUSE` parks the clients and `STOP` ends them.
pub const PHASES: usize = 112;
pub const PAUSE: u8 = 254;
pub const STOP: u8 = 255;

/// A client-side connection to the server under test.
#[derive(Debug)]
pub struct Conn {
    kernel: Arc<VirtualKernel>,
    fd: Fd,
}

impl Conn {
    /// Connects to `port`, retrying while nothing listens yet.
    pub fn connect(kernel: &Arc<VirtualKernel>, port: u16) -> OsResult<Conn> {
        let until = Instant::now() + Duration::from_secs(10);
        loop {
            match kernel.connect(port) {
                Ok(fd) => {
                    return Ok(Conn {
                        kernel: kernel.clone(),
                        fd,
                    })
                }
                Err(Errno::ConnRefused) if Instant::now() < until => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }
    }

    pub fn send(&self, data: &[u8]) -> OsResult<()> {
        let mut rest = data;
        while !rest.is_empty() {
            let n = self.kernel.client_send(self.fd, rest)?;
            rest = &rest[n..];
        }
        Ok(())
    }

    /// Reads exactly `expected.len()` bytes, comparing them as they
    /// arrive. `Ok(false)` on the first byte that differs; the stream is
    /// then out of step and the connection must be replaced.
    pub fn expect(&self, expected: &[u8]) -> OsResult<bool> {
        let deadline = Instant::now() + OP_TIMEOUT;
        let mut at = 0;
        while at < expected.len() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(Errno::TimedOut);
            }
            let got = self.kernel.client_recv_timeout(
                self.fd,
                (expected.len() - at).min(RECV_CHUNK),
                left,
            )?;
            if got.is_empty() {
                return Err(Errno::ConnReset);
            }
            if got.as_slice() != &expected[at..at + got.len()] {
                return Ok(false);
            }
            at += got.len();
        }
        Ok(true)
    }

    /// Reads one CRLF-terminated line (only used for the FTP banner,
    /// whose text differs between versions).
    fn line(&self) -> OsResult<Vec<u8>> {
        let deadline = Instant::now() + OP_TIMEOUT;
        let mut line = Vec::new();
        while !line.ends_with(b"\r\n") {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(Errno::TimedOut);
            }
            let got = self.kernel.client_recv_timeout(self.fd, 1, left)?;
            if got.is_empty() {
                return Err(Errno::ConnReset);
            }
            line.extend_from_slice(&got);
        }
        Ok(line)
    }

    pub fn close(self) {
        let _ = self.kernel.close(self.fd);
    }
}

/// What one client sends, and the replies it expects.
#[derive(Clone, Debug)]
pub enum Model {
    Kv(KvModel),
    /// Downloads of the benchmark file; holds the exact reply.
    Ftp(Arc<Vec<u8>>),
}

impl Model {
    pub fn new(workload: Workload, conn: usize, seed: u64, retr: &Arc<Vec<u8>>) -> Model {
        match workload.proto() {
            Proto::Ftp => Model::Ftp(retr.clone()),
            proto => Model::Kv(KvModel::new(proto, conn, CONNS, workload.keyspace(), seed)),
        }
    }

    /// Opens a session: connects and, for FTP, logs in.
    pub fn open(&self, kernel: &Arc<VirtualKernel>, port: u16) -> Result<Conn, String> {
        let conn = Conn::connect(kernel, port).map_err(|e| format!("connect: {e}"))?;
        if let Model::Ftp(_) = self {
            let banner = conn.line().map_err(|e| format!("banner: {e}"))?;
            let login = conn
                .send(b"USER bench\r\n")
                .and_then(|()| conn.expect(b"331 Please specify the password.\r\n"))
                .and_then(|ok| {
                    conn.send(b"PASS bench\r\n")?;
                    Ok(ok && conn.expect(b"230 Login successful.\r\n")?)
                });
            if !banner.starts_with(b"220") || !matches!(login, Ok(true)) {
                return Err(format!("FTP login failed: {login:?}"));
            }
        }
        Ok(conn)
    }

    /// Writes every owned key exactly once, pipelining `batch` requests
    /// per round trip.
    pub fn preload(&self, conn: &Conn) -> Result<(), String> {
        let Model::Kv(kv) = self else { return Ok(()) };
        const BATCH: usize = 128;
        let (mut req, mut exp) = (Vec::new(), Vec::new());
        let mut at = 0;
        while at < kv.len() {
            let end = (at + BATCH).min(kv.len());
            kv.preload_batch(at..end, &mut req, &mut exp);
            conn.send(&req).map_err(|e| format!("preload send: {e}"))?;
            match conn.expect(&exp) {
                Ok(true) => {}
                other => return Err(format!("preload reply check failed: {other:?}")),
            }
            at = end;
        }
        Ok(())
    }
}

/// Client-side timestamps of one operation, for the traced run
/// (nanoseconds on the benchmark clock).
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTimes {
    pub req: u64,
    pub start: u64,
    /// The client blocked for the reply from `wait_start` to `wait_end`.
    pub wait_start: u64,
    pub wait_end: u64,
    pub end: u64,
}

/// What one client observed.
#[derive(Debug)]
pub struct ClientRec {
    /// Latencies (ns, saturating) of checked operations that started and
    /// ended in the same phase, per phase.
    pub lat: Vec<Vec<u32>>,
    pub ok: [u64; PHASES],
    pub failed: [u64; PHASES],
    /// Per phase, the largest latency among operations in flight at any
    /// moment of it.
    pub overlap_max_ns: [u64; PHASES],
    /// Per-operation timestamps (traced runs only).
    pub ops: Vec<OpTimes>,
}

impl ClientRec {
    fn new() -> ClientRec {
        ClientRec {
            lat: vec![Vec::new(); PHASES],
            ok: [0; PHASES],
            failed: [0; PHASES],
            overlap_max_ns: [0; PHASES],
            ops: Vec::new(),
        }
    }

    /// Files one operation: its latency counts toward its phase when it
    /// started and ended there, and toward the overlap maximum of every
    /// phase it was in flight during (phases are numbered in time order).
    pub fn record(&mut self, start: u8, end: u8, lat_ns: u64, ok: bool) {
        let p = start as usize;
        if !ok {
            self.failed[p] += 1;
            return;
        }
        self.ok[p] += 1;
        if start == end {
            self.lat[p].push(lat_ns.min(u32::MAX as u64) as u32);
        }
        let last = if (end as usize) < PHASES {
            end as usize
        } else {
            p
        };
        for max in &mut self.overlap_max_ns[p..=last.max(p)] {
            *max = (*max).max(lat_ns);
        }
    }
}

/// Controller-side handle on the running clients.
pub struct Load {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<ClientRec>>,
}

struct Shared {
    phase: AtomicU8,
    traced: AtomicBool,
    /// A client is between deciding to run an operation and finishing it.
    busy: [AtomicBool; CONNS],
    /// Operations left before the client parks itself (`i64::MAX` for
    /// no limit).
    quota: [AtomicI64; CONNS],
    inflight: Inflight,
}

/// Request id of each connection's operation in flight (0 = none),
/// which the traced run stamps on server-side spans.
#[derive(Clone, Debug, Default)]
pub struct Inflight(Arc<[AtomicU64; CONNS]>);

impl Inflight {
    pub fn of(&self, conn: usize) -> u64 {
        self.0[conn].load(Ordering::Relaxed)
    }

    fn set(&self, conn: usize, req: u64) {
        self.0[conn].store(req, Ordering::Relaxed);
    }
}

impl Load {
    /// Starts one client thread per opened connection, in `phase`.
    pub fn start(
        kernel: &Arc<VirtualKernel>,
        port: u16,
        sessions: Vec<(Model, Conn)>,
        phase: u8,
        inflight: Inflight,
    ) -> Load {
        let shared = Arc::new(Shared {
            phase: AtomicU8::new(phase),
            traced: AtomicBool::new(false),
            busy: Default::default(),
            quota: std::array::from_fn(|_| AtomicI64::new(i64::MAX)),
            inflight,
        });
        let handles = sessions
            .into_iter()
            .enumerate()
            .map(|(c, (model, conn))| {
                let shared = shared.clone();
                let kernel = kernel.clone();
                std::thread::Builder::new()
                    .name(format!("client-{c}"))
                    .spawn(move || client_loop(c, model, conn, &kernel, port, &shared))
                    .expect("spawn client thread")
            })
            .collect();
        Load { shared, handles }
    }

    pub fn set_phase(&self, phase: u8) {
        self.shared.phase.store(phase, Ordering::SeqCst);
    }

    pub fn set_traced(&self, on: bool) {
        self.shared.traced.store(on, Ordering::SeqCst);
    }

    /// Parks every client and returns once none has an operation in
    /// flight.
    pub fn pause(&self) {
        self.set_phase(PAUSE);
        self.wait_idle();
    }

    /// Lets each client run `ops` operations in `phase`, then parks it;
    /// returns when all have finished.
    pub fn run_quota(&self, phase: u8, ops: i64) {
        let clients = &self.shared.quota[..self.handles.len()];
        for q in clients {
            q.store(ops, Ordering::SeqCst);
        }
        self.set_phase(phase);
        // A client whose connection could not be reopened has ended.
        while clients
            .iter()
            .zip(&self.handles)
            .any(|(q, h)| q.load(Ordering::SeqCst) > 0 && !h.is_finished())
        {
            std::thread::sleep(Duration::from_micros(200));
        }
        self.pause();
        for q in &self.shared.quota {
            q.store(i64::MAX, Ordering::SeqCst);
        }
    }

    fn wait_idle(&self) {
        // Pairs with the client's busy-then-phase order: a client that
        // saw a running phase has `busy` set before this load.
        while self.shared.busy.iter().any(|b| b.load(Ordering::SeqCst)) {
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Stops the clients and returns their records.
    pub fn stop(self) -> Vec<ClientRec> {
        self.set_phase(STOP);
        self.handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    }
}

fn client_loop(
    c: usize,
    mut model: Model,
    mut conn: Conn,
    kernel: &Arc<VirtualKernel>,
    port: u16,
    shared: &Shared,
) -> ClientRec {
    let mut rec = ClientRec::new();
    let (mut req, mut exp) = (Vec::new(), Vec::new());
    let mut seq = 0u64;
    loop {
        shared.busy[c].store(true, Ordering::SeqCst);
        let phase = shared.phase.load(Ordering::SeqCst);
        if phase == STOP {
            shared.busy[c].store(false, Ordering::SeqCst);
            break;
        }
        if phase == PAUSE || shared.quota[c].load(Ordering::SeqCst) <= 0 {
            shared.busy[c].store(false, Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(100));
            continue;
        }
        let traced = shared.traced.load(Ordering::Relaxed);
        seq += 1;
        let id = ((c as u64 + 1) << 48) | seq;
        shared.inflight.set(c, id);
        let mut times = OpTimes::default();
        let begin = Instant::now();
        if traced {
            times.req = id;
            times.start = now_ns();
        }
        let kv_op = match &mut model {
            Model::Kv(kv) => Some(kv.next(&mut req, &mut exp)),
            Model::Ftp(_) => None,
        };
        let expected: &[u8] = match &model {
            Model::Kv(_) => &exp,
            Model::Ftp(reply) => reply,
        };
        let request: &[u8] = match &model {
            Model::Kv(_) => &req,
            Model::Ftp(_) => b"RETR large.bin\r\n",
        };
        let ok = conn.send(request).is_ok() && {
            if traced {
                times.wait_start = now_ns();
            }
            let ok = matches!(conn.expect(expected), Ok(true));
            if traced {
                times.wait_end = now_ns();
            }
            ok
        };
        if let (Model::Kv(kv), Some(op)) = (&mut model, kv_op) {
            kv.complete(op, ok);
        }
        let lat = begin.elapsed().as_nanos() as u64;
        shared.inflight.set(c, 0);
        let end_phase = shared.phase.load(Ordering::SeqCst);
        rec.record(phase, end_phase, lat, ok);
        if traced && ok {
            times.end = now_ns();
            rec.ops.push(times);
        }
        shared.quota[c].fetch_sub(1, Ordering::SeqCst);
        if !ok {
            // The stream may be out of step: start a fresh session.
            let old = std::mem::replace(
                &mut conn,
                match model.open(kernel, port) {
                    Ok(fresh) => fresh,
                    Err(_) => {
                        shared.busy[c].store(false, Ordering::SeqCst);
                        break;
                    }
                },
            );
            old.close();
        }
        shared.busy[c].store(false, Ordering::SeqCst);
    }
    conn.close();
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsu::StepOutcome;

    /// Serves Redis 2.0.0 natively on `port` until the returned flag is
    /// set.
    fn redis(kernel: &Arc<VirtualKernel>, port: u16) -> (Arc<AtomicBool>, JoinHandle<()>) {
        let registry = servers::redis::registry(&servers::redis::RedisOptions::new(port));
        let mut app = registry.boot(&dsu::v("2.0.0")).expect("boot");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let mut os = vos::DirectOs::new(kernel.clone());
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::SeqCst) {
                if app.step(&mut os) == StepOutcome::Shutdown {
                    break;
                }
            }
        });
        (stop, handle)
    }

    /// Runs 300 checked operations against a preloaded 8-key Redis;
    /// with `plant`, another connection first overwrites one key behind
    /// the model's back. Returns (attempted, failed).
    fn run_checked(plant: bool) -> (u64, u64) {
        let kernel = VirtualKernel::new();
        let port = 7400 + plant as u16;
        let (stop, server) = redis(&kernel, port);
        let kv = KvModel::new(Proto::Redis, 0, 1, 8, 5);
        let forged = kv.forge_request(3);
        let model = Model::Kv(kv);
        let conn = model.open(&kernel, port).expect("connect");
        model.preload(&conn).expect("preload");
        if plant {
            let rogue = Conn::connect(&kernel, port).expect("connect");
            rogue.send(&forged).expect("send");
            assert_eq!(rogue.expect(b"+OK\r\n"), Ok(true));
            rogue.close();
        }
        let load = Load::start(
            &kernel,
            port,
            vec![(model, conn)],
            PAUSE,
            Inflight::default(),
        );
        load.run_quota(1, 300);
        let recs = load.stop();
        stop.store(true, Ordering::SeqCst);
        server.join().expect("server thread");
        crate::lifecycle::totals(&recs)
    }

    #[test]
    fn every_reply_of_an_honest_server_passes_the_check() {
        let (attempted, failed) = run_checked(false);
        assert!(attempted >= 300, "{attempted}");
        assert_eq!(failed, 0);
    }

    #[test]
    fn a_planted_wrong_reply_raises_fail_frac() {
        let (attempted, failed) = run_checked(true);
        assert!(attempted >= 300, "{attempted}");
        assert!(
            failed > 0,
            "reads of the overwritten key must fail the check"
        );
    }

    #[test]
    fn latency_is_filed_under_the_phase_it_started_and_ended_in() {
        let mut rec = ClientRec::new();
        rec.record(1, 1, 10, true);
        rec.record(1, 3, 500, true);
        rec.record(3, 3, 20, true);
        rec.record(3, 3, 20, false);
        rec.record(4, PAUSE, 30, true);
        assert_eq!(rec.lat[1], vec![10]);
        assert_eq!(rec.lat[3], vec![20]);
        assert!(rec.lat[4].is_empty(), "an op cut by a pause has no window");
        assert_eq!((rec.ok[1], rec.ok[3], rec.failed[3]), (2, 1, 1));
        assert_eq!(rec.overlap_max_ns[..5], [0, 500, 500, 500, 30]);
    }
}
