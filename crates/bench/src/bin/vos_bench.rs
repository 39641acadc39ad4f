//! Data-plane benchmark for vos: shared [`Buf`] payloads end-to-end
//! (stream inbox → syscall record → event ring → follower comparison).
//!
//! Measures, per payload size (64 B – 64 KiB):
//! * echo round-trip rate (kops/s) and RTT p50/p99 — client_send →
//!   server read → server write → client_recv — with the server running
//!   leader-only (`VariantOs::single`, MVE off) and leader+follower
//!   (records crossing the ring to a live replaying follower),
//! * the cross-thread hand-off: a client thread and a server thread
//!   ping-pong 64 B, the server waiting as `NetCore` does (`epoll_wait`
//!   → `read_timeout` → `write`); round trips per second and process
//!   CPU ns per round trip. Echo runs both sides on one thread, so only
//!   this case pays for waking a blocked peer. Reported, not gated,
//!   because it shows wake-up cost, which moves with the host's load,
//! * the price of a park (`park_price`): CPU and wall ns per hand-off
//!   of a `Mutex` + `Condvar` ping-pong, CPU ns per hand-off of a
//!   ping-pong that polls with yields, and the ns of one `yield_now` —
//!   the numbers `vos`'s spin budget is derived from (docs/vos.md);
//!   reported, not gated,
//! * bulk throughput (MB/s) — the server streams a large payload in
//!   size-`S` writes, the client drains concurrently — in both modes,
//! * stream-level throughput of the chunk-queue path, retaining each
//!   write in a bounded record log as the leader does (a `Buf::clone`
//!   refcount bump).
//!
//! Emits machine-readable JSON (default `BENCH_vos.json`). CI runs
//! `--quick --check BENCH_vos.json`: the 4 KiB throughput keys gate at
//! `--min-ratio` (default 0.8, the 20% regression rule).
//!
//! Usage: `vos_bench [--quick] [--out PATH] [--check BASELINE [--min-ratio R]]`

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use bench_support::gate::BenchArgs;
use dsl::{Builtins, RuleSet};
use mve::{EventRing, FollowerConfig, LeaderConfig, VariantOs};
use obs::json::JsonObject;
use ring::Ring;
use vos::{Buf, CtlOp, Errno, Os, VirtualKernel};

const SIZES: [usize; 4] = [64, 1024, 4096, 65536];
/// Bounded record retention mirroring the replication ring's depth.
const LOG_DEPTH: usize = 1024;

struct ModeParams {
    name: &'static str,
    /// Echo round-trips per (mode, size) measurement.
    echo_ops: u64,
    /// Bytes streamed per bulk measurement.
    bulk_bytes: usize,
    /// Round trips of the cross-thread hand-off.
    handoff_ops: u64,
}

const FULL: ModeParams = ModeParams {
    name: "full",
    echo_ops: 20_000,
    bulk_bytes: 64 << 20,
    handoff_ops: 200_000,
};

const QUICK: ModeParams = ModeParams {
    name: "quick",
    echo_ops: 2_000,
    bulk_bytes: 8 << 20,
    handoff_ops: 20_000,
};

fn follower_config(ring: EventRing) -> FollowerConfig {
    FollowerConfig {
        ring,
        rules: Arc::new(RuleSet::empty()),
        builtins: Arc::new(Builtins::standard()),
        promote_to: None,
        lag: None,
    }
}

struct EchoResult {
    kops: f64,
    p50_ns: u64,
    p99_ns: u64,
}

/// Echo round-trips through the full syscall boundary. With `mve` on,
/// every server-side call is logged to the ring and replayed by a live
/// follower thread running the identical echo loop.
fn bench_echo(port: u16, mve: bool, size: usize, ops: u64) -> EchoResult {
    let kernel = VirtualKernel::new();
    let mut server = VariantOs::single(0, kernel.clone(), None);
    let listener = server.listen(port).expect("listen");

    let follower = if mve {
        let ring: EventRing = Arc::new(Ring::with_capacity(1 << 14));
        server.attach_follower(LeaderConfig {
            ring: ring.clone(),
            lockstep: None,
        });
        let kernel = kernel.clone();
        let follower_ring = ring.clone();
        Some((
            ring,
            thread::spawn(move || {
                let mut f = VariantOs::follower(1, kernel, follower_config(follower_ring), None);
                let conn = f.accept(listener).expect("follower accept");
                for _ in 0..ops {
                    let req = f.read_timeout(conn, size, 60_000).expect("follower read");
                    // Echo the buffer we were handed: under the shared data
                    // plane this is the leader's own allocation, so the
                    // divergence check short-circuits on pointer identity.
                    f.write_buf(conn, req).expect("follower write");
                }
            }),
        ))
    } else {
        None
    };

    let client = kernel.connect(port).expect("connect");
    let conn = server.accept(listener).expect("accept");
    let payload = vec![0xA5u8; size];
    let mut samples = Vec::with_capacity(ops as usize);
    let begin = Instant::now();
    for _ in 0..ops {
        let t0 = Instant::now();
        kernel.client_send(client, &payload).expect("send");
        let req = server.read_timeout(conn, size, 10_000).expect("read");
        debug_assert_eq!(req.len(), size);
        server.write_buf(conn, req).expect("write");
        let mut got = 0;
        while got < size {
            got += kernel
                .client_recv_timeout(client, size, Duration::from_secs(10))
                .expect("recv")
                .len();
        }
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    let elapsed = begin.elapsed();
    if let Some((ring, h)) = follower {
        // The server now waits on its follower: kick the ring as an
        // idle leader would, or the tail below the wake mark stays put.
        ring.kick();
        h.join().expect("follower");
    }
    samples.sort_unstable();
    EchoResult {
        kops: ops as f64 / elapsed.as_secs_f64() / 1e3,
        p50_ns: samples[samples.len() / 2],
        p99_ns: samples[samples.len() * 99 / 100],
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time every thread of this process has run so far, in ns. Time
/// spent parked or waiting to be scheduled does not count.
fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // 64-bit Linux).
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

struct HandoffResult {
    round_trips_per_s: f64,
    cpu_ns_per_round_trip: f64,
}

/// Cross-thread hand-off: the client (this thread) sends 64 B and
/// blocks for the reply; a server thread waits as `NetCore` does —
/// `epoll_wait`, `read_timeout`, then `write` — with its 10 ms poll and
/// 20 ms read timeouts. Every round trip hands the turn to the other
/// thread twice.
fn bench_handoff(port: u16, ops: u64) -> HandoffResult {
    const SIZE: usize = 64;
    let kernel = VirtualKernel::new();
    let mut server = VariantOs::single(0, kernel.clone(), None);
    let listener = server.listen(port).expect("listen");
    let client = kernel.connect(port).expect("connect");
    let conn = server.accept(listener).expect("accept");
    let ep = server.epoll_create().expect("epoll_create");
    server.epoll_ctl(ep, CtlOp::Add, conn).expect("epoll_ctl");
    let serve = thread::spawn(move || {
        let mut served = 0;
        while served < ops {
            for fd in server.epoll_wait(ep, 16, 10).expect("epoll_wait") {
                match server.read_timeout(fd, 4096, 20) {
                    Ok(req) => {
                        server.write_buf(fd, req).expect("write");
                        served += 1;
                    }
                    Err(Errno::TimedOut) => {}
                    Err(e) => panic!("server read: {e:?}"),
                }
            }
        }
    });

    let payload = [0x5Au8; SIZE];
    let cpu0 = process_cpu_ns();
    let begin = Instant::now();
    for _ in 0..ops {
        kernel.client_send(client, &payload).expect("send");
        let mut got = 0;
        while got < SIZE {
            got += kernel
                .client_recv_timeout(client, SIZE, Duration::from_secs(10))
                .expect("recv")
                .len();
        }
    }
    let elapsed = begin.elapsed();
    let cpu = process_cpu_ns() - cpu0;
    serve.join().expect("server");
    HandoffResult {
        round_trips_per_s: ops as f64 / elapsed.as_secs_f64(),
        cpu_ns_per_round_trip: cpu as f64 / ops as f64,
    }
}

/// What one hand-off between two threads costs when the waiter parks
/// and when it polls with yields: the prices `vos`'s `SPIN_BUDGET` is
/// derived from. Reported, not gated.
struct ParkPrice {
    /// Process CPU ns per hand-off of a `Mutex` + `Condvar` ping-pong:
    /// one park and the wake that ends it.
    condvar_cpu_ns_per_handoff: f64,
    /// Wall ns per hand-off of the same ping-pong.
    condvar_wall_ns_per_handoff: f64,
    /// Process CPU ns per hand-off of a ping-pong whose waiter polls an
    /// atomic and yields between polls, as `vos`'s spin phase does.
    yield_cpu_ns_per_handoff: f64,
    /// Wall ns of one `yield_now` with no other thread to run.
    yield_ns: f64,
}

/// Two threads pass a turn back and forth `ops` times each way; `wait`
/// blocks the calling thread until the turn is `mine`, `pass` hands it
/// on. Returns (process CPU ns, wall ns) per hand-off.
fn ping_pong<S: Send + Sync + 'static>(
    ops: u64,
    state: S,
    wait: fn(&S, u64),
    pass: fn(&S, u64),
) -> (f64, f64) {
    let state = Arc::new(state);
    let peer = {
        let state = state.clone();
        thread::spawn(move || {
            for _ in 0..ops {
                wait(&state, 1);
                pass(&state, 0);
            }
        })
    };
    let cpu0 = process_cpu_ns();
    let begin = Instant::now();
    for _ in 0..ops {
        pass(&state, 1);
        wait(&state, 0);
    }
    let wall = begin.elapsed().as_nanos() as f64;
    let cpu = (process_cpu_ns() - cpu0) as f64;
    peer.join().expect("ping-pong peer");
    let handoffs = 2.0 * ops as f64;
    (cpu / handoffs, wall / handoffs)
}

fn bench_park_price(ops: u64) -> ParkPrice {
    type Parked = (Mutex<u64>, Condvar);
    let (condvar_cpu, condvar_wall) = ping_pong(
        ops,
        (Mutex::new(0), Condvar::new()),
        |(turn, cv): &Parked, mine| {
            let mut turn = turn.lock().expect("turn");
            while *turn != mine {
                turn = cv.wait(turn).expect("turn");
            }
        },
        |(turn, cv): &Parked, next| {
            *turn.lock().expect("turn") = next;
            cv.notify_one();
        },
    );
    let (yield_cpu, _) = ping_pong(
        ops,
        AtomicU64::new(0),
        |turn, mine| {
            while turn.load(Ordering::Acquire) != mine {
                thread::yield_now();
            }
        },
        |turn, next| turn.store(next, Ordering::Release),
    );
    let begin = Instant::now();
    for _ in 0..ops {
        thread::yield_now();
    }
    ParkPrice {
        condvar_cpu_ns_per_handoff: condvar_cpu,
        condvar_wall_ns_per_handoff: condvar_wall,
        yield_cpu_ns_per_handoff: yield_cpu,
        yield_ns: begin.elapsed().as_nanos() as f64 / ops as f64,
    }
}

/// Bulk streaming through the full syscall boundary: `total/chunk`
/// size-`chunk` writes of one shared allocation, drained concurrently by
/// the client. Returns client-observed MB/s.
fn bench_bulk(port: u16, mve: bool, chunk: usize, total: usize) -> f64 {
    let writes = total / chunk;
    let kernel = VirtualKernel::new();
    let mut server = VariantOs::single(0, kernel.clone(), None);
    let listener = server.listen(port).expect("listen");

    let follower = if mve {
        let ring: EventRing = Arc::new(Ring::with_capacity(1 << 14));
        server.attach_follower(LeaderConfig {
            ring: ring.clone(),
            lockstep: None,
        });
        let kernel = kernel.clone();
        let follower_ring = ring.clone();
        Some((
            ring,
            thread::spawn(move || {
                let mut f = VariantOs::follower(1, kernel, follower_config(follower_ring), None);
                let conn = f.accept(listener).expect("follower accept");
                // The follower computes its own payload (a distinct
                // allocation), so the divergence check takes the content
                // path — the honest cost of a real variant.
                let payload = Buf::from_vec(vec![0xC3u8; chunk]);
                for _ in 0..writes {
                    f.write_buf(conn, payload.clone()).expect("follower write");
                }
            }),
        ))
    } else {
        None
    };

    let client = kernel.connect(port).expect("connect");
    let conn = server.accept(listener).expect("accept");
    let drain = {
        let kernel = kernel.clone();
        thread::spawn(move || {
            let mut got = 0usize;
            while got < total {
                got += kernel
                    .client_recv_timeout(client, 1 << 20, Duration::from_secs(30))
                    .expect("recv")
                    .len();
            }
        })
    };

    let payload = Buf::from_vec(vec![0xC3u8; chunk]);
    let begin = Instant::now();
    for _ in 0..writes {
        server.write_buf(conn, payload.clone()).expect("write");
    }
    drain.join().expect("drain");
    let elapsed = begin.elapsed();
    if let Some((ring, h)) = follower {
        ring.kick();
        h.join().expect("follower");
    }
    (writes * chunk) as f64 / elapsed.as_secs_f64() / 1e6
}

/// Stream-level bulk throughput: one shared allocation, O(1) `Buf`
/// clones into the inbox and the record log, reads handed back as
/// refcounted slices of the original storage.
fn bench_stream_shared(port: u16, chunk: usize, total: usize) -> f64 {
    let writes = total / chunk;
    let kernel = VirtualKernel::new();
    let listener = kernel.listen(port).expect("listen");
    let client = kernel.connect(port).expect("connect");
    let server = kernel.accept(listener).expect("accept");

    let reader = {
        let kernel = kernel.clone();
        thread::spawn(move || {
            let mut got = 0usize;
            while got < total {
                let data = kernel
                    .client_recv_timeout(client, chunk, Duration::from_secs(30))
                    .expect("recv");
                assert!(!data.is_empty(), "stream hit premature EOF");
                got += data.len();
            }
        })
    };
    let payload = Buf::from_vec(vec![0xC3u8; chunk]);
    let mut log: VecDeque<Buf> = VecDeque::with_capacity(LOG_DEPTH);
    let begin = Instant::now();
    for _ in 0..writes {
        kernel.write_buf(server, payload.clone()).expect("write");
        if log.len() == LOG_DEPTH {
            log.pop_front();
        }
        log.push_back(payload.clone());
    }
    reader.join().expect("reader");
    let elapsed = begin.elapsed();
    (writes * chunk) as f64 / elapsed.as_secs_f64() / 1e6
}

fn size_map(entries: &[(usize, f64)]) -> String {
    let mut map = JsonObject::new();
    for (size, v) in entries {
        map.field_f64(&size.to_string(), *v);
    }
    map.finish()
}

/// The value measured at `size`, if any.
fn at(entries: &[(usize, f64)], size: usize) -> Option<f64> {
    entries.iter().find(|(s, _)| *s == size).map(|(_, v)| *v)
}

struct Report {
    echo_single: Vec<(usize, EchoResult)>,
    echo_mve: Vec<(usize, EchoResult)>,
    handoff: HandoffResult,
    park_price: ParkPrice,
    bulk_single: Vec<(usize, f64)>,
    bulk_mve: Vec<(usize, f64)>,
    stream_shared: Vec<(usize, f64)>,
}

impl Report {
    /// The gated metrics: 4 KiB throughput against the baseline.
    fn gate_metrics(&self) -> Vec<(String, f64)> {
        // Throughput gates use 4 KiB only: the 64 KiB measurement
        // finishes in well under a millisecond in quick mode, which is
        // too noisy to gate at a 20% floor.
        let mut gates = Vec::new();
        for (name, entries) in [
            ("bulk_single_mbps", &self.bulk_single),
            ("stream_shared_mbps", &self.stream_shared),
        ] {
            if let Some(v) = at(entries, 4096) {
                gates.push((format!("{name}_4096"), v));
            }
        }
        gates
    }

    fn emit_json(&self, mode: &str) -> String {
        let echo_map = |entries: &[(usize, EchoResult)]| {
            let mut map = JsonObject::new();
            for (size, r) in entries {
                let mut cell = JsonObject::new();
                cell.field_f64("kops", r.kops)
                    .field_u64("p50_ns", r.p50_ns)
                    .field_u64("p99_ns", r.p99_ns);
                map.field_raw(&size.to_string(), &cell.finish());
            }
            map.finish()
        };
        let mut results = JsonObject::new();
        for (section, halves) in [
            (
                "echo",
                [
                    ("single", echo_map(&self.echo_single)),
                    ("mve", echo_map(&self.echo_mve)),
                ],
            ),
            (
                "bulk_mbps",
                [
                    ("single", size_map(&self.bulk_single)),
                    ("mve", size_map(&self.bulk_mve)),
                ],
            ),
        ] {
            let mut object = JsonObject::new();
            for (half, map) in halves {
                object.field_raw(half, &map);
            }
            results.field_raw(section, &object.finish());
        }
        let mut stream = JsonObject::new();
        stream.field_raw("shared", &size_map(&self.stream_shared));
        results.field_raw("stream_mbps", &stream.finish());
        let mut handoff = JsonObject::new();
        handoff
            .field_f64("round_trips_per_s", self.handoff.round_trips_per_s)
            .field_f64("cpu_ns_per_round_trip", self.handoff.cpu_ns_per_round_trip);
        results.field_raw("handoff_64", &handoff.finish());
        let price = &self.park_price;
        let mut park_price = JsonObject::new();
        park_price
            .field_f64(
                "condvar_cpu_ns_per_handoff",
                price.condvar_cpu_ns_per_handoff,
            )
            .field_f64(
                "condvar_wall_ns_per_handoff",
                price.condvar_wall_ns_per_handoff,
            )
            .field_f64("yield_cpu_ns_per_handoff", price.yield_cpu_ns_per_handoff)
            .field_f64("yield_ns", price.yield_ns);
        results.field_raw("park_price", &park_price.finish());
        let mut gate = JsonObject::new();
        for (key, measured) in self.gate_metrics() {
            gate.field_f64(&key, measured);
        }
        let mut report = JsonObject::new();
        report
            .field_str("bench", "vos_bench")
            .field_str("mode", mode)
            .field_raw("results", &results.finish())
            .field_raw("gate", &gate.finish());
        report.finish()
    }
}

fn main() {
    let args = BenchArgs::from_env("vos_bench", "BENCH_vos.json");
    let params = if args.quick { &QUICK } else { &FULL };
    eprintln!("vos_bench: mode={}", params.name);
    let mut port = 9300u16;
    let mut next_port = || {
        port += 1;
        port
    };

    let handoff = bench_handoff(next_port(), params.handoff_ops);
    eprintln!(
        "  handoff   64B: {:8.1} kround-trips/s   {:7.0} CPU ns per round trip",
        handoff.round_trips_per_s / 1e3,
        handoff.cpu_ns_per_round_trip
    );
    let park_price = bench_park_price(params.handoff_ops);
    eprintln!(
        "  park price:    condvar {:5.0} CPU ns / {:5.0} wall ns per hand-off   yield {:5.0} CPU ns per hand-off   {:4.0} ns per yield",
        park_price.condvar_cpu_ns_per_handoff,
        park_price.condvar_wall_ns_per_handoff,
        park_price.yield_cpu_ns_per_handoff,
        park_price.yield_ns
    );
    let mut report = Report {
        echo_single: Vec::new(),
        echo_mve: Vec::new(),
        handoff,
        park_price,
        bulk_single: Vec::new(),
        bulk_mve: Vec::new(),
        stream_shared: Vec::new(),
    };
    for &size in &SIZES {
        let single = bench_echo(next_port(), false, size, params.echo_ops);
        let mve = bench_echo(next_port(), true, size, params.echo_ops);
        eprintln!(
            "  echo {size:>6}B: single {:8.1} kops/s (p50 {:5} ns)   mve {:8.1} kops/s (p50 {:5} ns)",
            single.kops, single.p50_ns, mve.kops, mve.p50_ns
        );
        report.echo_single.push((size, single));
        report.echo_mve.push((size, mve));
    }
    for &size in &SIZES {
        let single = bench_bulk(next_port(), false, size, params.bulk_bytes);
        let mve = bench_bulk(next_port(), true, size, params.bulk_bytes);
        eprintln!("  bulk {size:>6}B: single {single:9.1} MB/s   mve {mve:9.1} MB/s");
        report.bulk_single.push((size, single));
        report.bulk_mve.push((size, mve));
    }
    for &size in &SIZES {
        let shared = bench_stream_shared(next_port(), size, params.bulk_bytes);
        eprintln!("  stream {size:>6}B: shared {shared:9.1} MB/s");
        report.stream_shared.push((size, shared));
    }

    args.write_report(&report.emit_json(params.name));
    args.gate("vos_bench", "gate", &report.gate_metrics());
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench_support::gate::baseline_metric;

    #[test]
    fn report_reads_back_through_the_baseline_reader() {
        let report = Report {
            echo_single: vec![(
                64,
                EchoResult {
                    kops: 100.0,
                    p50_ns: 10,
                    p99_ns: 20,
                },
            )],
            echo_mve: vec![(
                64,
                EchoResult {
                    kops: 50.0,
                    p50_ns: 15,
                    p99_ns: 30,
                },
            )],
            handoff: HandoffResult {
                round_trips_per_s: 1e5,
                cpu_ns_per_round_trip: 9000.0,
            },
            park_price: ParkPrice {
                condvar_cpu_ns_per_handoff: 4500.0,
                condvar_wall_ns_per_handoff: 8000.0,
                yield_cpu_ns_per_handoff: 600.0,
                yield_ns: 150.0,
            },
            bulk_single: vec![(4096, 1000.0), (65536, 4000.0)],
            bulk_mve: vec![(4096, 500.0)],
            stream_shared: vec![(4096, 900.0), (65536, 2500.0)],
        };
        let json = report.emit_json("quick");
        let read = |key| baseline_metric(&json, "gate", key);
        assert_eq!(read("bulk_single_mbps_4096"), Some(1000.0));
        assert_eq!(read("stream_shared_mbps_4096"), Some(900.0));
        // 64 KiB throughput is deliberately ungated (too noisy in quick
        // mode).
        assert_eq!(read("stream_shared_mbps_65536"), None);
        assert_eq!(read("missing"), None);
        // The hand-off case is reported only.
        let handoff = |key| baseline_metric(&json, "handoff_64", key);
        assert_eq!(handoff("cpu_ns_per_round_trip"), Some(9000.0));
        assert_eq!(handoff("round_trips_per_s"), Some(1e5));
        assert_eq!(read("cpu_ns_per_round_trip"), None);
        let price = |key| baseline_metric(&json, "park_price", key);
        assert_eq!(price("condvar_cpu_ns_per_handoff"), Some(4500.0));
        assert_eq!(price("condvar_wall_ns_per_handoff"), Some(8000.0));
        assert_eq!(price("yield_cpu_ns_per_handoff"), Some(600.0));
        assert_eq!(price("yield_ns"), Some(150.0));
        assert_eq!(read("yield_ns"), None);
        let keys: Vec<String> = report.gate_metrics().into_iter().map(|g| g.0).collect();
        assert_eq!(keys, ["bulk_single_mbps_4096", "stream_shared_mbps_4096"]);
    }
}
