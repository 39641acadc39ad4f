//! Data-plane benchmark for the zero-copy vos rewrite: shared [`Buf`]
//! payloads end-to-end (stream inbox → syscall record → event ring →
//! follower comparison) vs. the seed's per-byte `VecDeque<u8>` stream
//! with `Vec` record clones, which this binary reconstructs faithfully
//! so the comparison survives the old code's deletion.
//!
//! Measures, per payload size (64 B – 64 KiB):
//! * echo round-trip rate (kops/s) and RTT p50/p99 — client_send →
//!   server read → server write → client_recv — with the server running
//!   leader-only (`VariantOs::single`, MVE off) and leader+follower
//!   (records crossing the ring to a live replaying follower),
//! * bulk throughput (MB/s) — the server streams a large payload in
//!   size-`S` writes, the client drains concurrently — in both modes,
//! * stream-level throughput of the new chunk-queue path vs. the
//!   reconstructed legacy path, each paying its era's record-retention
//!   cost (`Buf::clone` refcount bump vs. `to_vec` payload copy).
//!
//! Emits machine-readable JSON (default `BENCH_vos.json`). CI runs
//! `--quick --check BENCH_vos.json`: throughput keys gate at
//! `--min-ratio` (default 0.8, the 20% regression rule); the
//! `speedup_vs_legacy_*` keys gate at an absolute 2.0× floor — the
//! acceptance bar for the rewrite, re-proven on every run.
//!
//! Usage: `vos_bench [--quick] [--out PATH] [--check BASELINE [--min-ratio R]]`

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dsl::{Builtins, RuleSet};
use mve::{EventRing, FollowerConfig, LeaderConfig, VariantOs};
use ring::Ring;
use vos::{Buf, Os, VirtualKernel};

const SIZES: [usize; 4] = [64, 1024, 4096, 65536];
/// Bounded record retention mirroring the replication ring's depth.
const LOG_DEPTH: usize = 1024;

struct ModeParams {
    name: &'static str,
    /// Echo round-trips per (mode, size) measurement.
    echo_ops: u64,
    /// Bytes streamed per bulk measurement.
    bulk_bytes: usize,
}

const FULL: ModeParams = ModeParams {
    name: "full",
    echo_ops: 20_000,
    bulk_bytes: 64 << 20,
};

const QUICK: ModeParams = ModeParams {
    name: "quick",
    echo_ops: 2_000,
    bulk_bytes: 8 << 20,
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
        Some(thread::spawn(move || {
            let mut f = VariantOs::follower(1, kernel, follower_config(ring), None);
            let conn = f.accept(listener).expect("follower accept");
            for _ in 0..ops {
                let req = f.read_timeout(conn, size, 60_000).expect("follower read");
                // Echo the buffer we were handed: under the shared data
                // plane this is the leader's own allocation, so the
                // divergence check short-circuits on pointer identity.
                f.write_buf(conn, req).expect("follower write");
            }
        }))
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
    if let Some(h) = follower {
        h.join().expect("follower");
    }
    samples.sort_unstable();
    EchoResult {
        kops: ops as f64 / elapsed.as_secs_f64() / 1e3,
        p50_ns: samples[samples.len() / 2],
        p99_ns: samples[samples.len() * 99 / 100],
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
        Some(thread::spawn(move || {
            let mut f = VariantOs::follower(1, kernel, follower_config(ring), None);
            let conn = f.accept(listener).expect("follower accept");
            // The follower computes its own payload (a distinct
            // allocation), so the divergence check takes the content
            // path — the honest cost of a real variant.
            let payload = Buf::from_vec(vec![0xC3u8; chunk]);
            for _ in 0..writes {
                f.write_buf(conn, payload.clone()).expect("follower write");
            }
        }))
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
    if let Some(h) = follower {
        h.join().expect("follower");
    }
    (writes * chunk) as f64 / elapsed.as_secs_f64() / 1e6
}

/// Faithful reconstruction of the seed's stream inbox (see the pre-PR
/// `crates/vos/src/stream.rs`): one `VecDeque<u8>`, writes extend it
/// byte-by-byte, reads drain-and-collect into a fresh `Vec`.
mod legacy {
    use std::collections::VecDeque;
    use std::time::Duration;

    use parking_lot::{Condvar, Mutex};

    struct Inbox {
        data: VecDeque<u8>,
        closed: bool,
    }

    pub struct LegacyStream {
        inbox: Mutex<Inbox>,
        cv: Condvar,
    }

    impl LegacyStream {
        pub fn new() -> Self {
            LegacyStream {
                inbox: Mutex::new(Inbox {
                    data: VecDeque::new(),
                    closed: false,
                }),
                cv: Condvar::new(),
            }
        }

        pub fn write(&self, data: &[u8]) -> usize {
            let mut inbox = self.inbox.lock();
            inbox.data.extend(data.iter().copied());
            self.cv.notify_all();
            data.len()
        }

        pub fn read(&self, max: usize, timeout: Duration) -> Vec<u8> {
            let deadline = std::time::Instant::now() + timeout;
            let mut inbox = self.inbox.lock();
            loop {
                if !inbox.data.is_empty() {
                    let n = max.min(inbox.data.len());
                    return inbox.data.drain(..n).collect();
                }
                if inbox.closed {
                    return Vec::new();
                }
                let now = std::time::Instant::now();
                assert!(now < deadline, "legacy read starved");
                let _ = self.cv.wait_for(&mut inbox, deadline - now);
            }
        }

        pub fn close(&self) {
            let mut inbox = self.inbox.lock();
            inbox.closed = true;
            self.cv.notify_all();
        }
    }
}

/// Stream-level bulk throughput on the reconstructed legacy path: every
/// write copies the payload into the deque byte queue AND clones it into
/// a bounded record log (what the old leader paid per logged syscall);
/// every read copies back out into a fresh `Vec`.
fn bench_stream_legacy(chunk: usize, total: usize) -> f64 {
    let writes = total / chunk;
    let stream = Arc::new(legacy::LegacyStream::new());
    let reader = {
        let stream = stream.clone();
        thread::spawn(move || {
            let mut got = 0usize;
            while got < total {
                let data = stream.read(chunk, Duration::from_secs(30));
                assert!(!data.is_empty(), "legacy stream hit premature EOF");
                got += data.len();
            }
        })
    };
    let payload = vec![0xC3u8; chunk];
    let mut log: VecDeque<Vec<u8>> = VecDeque::with_capacity(LOG_DEPTH);
    let begin = Instant::now();
    for _ in 0..writes {
        stream.write(&payload);
        if log.len() == LOG_DEPTH {
            log.pop_front();
        }
        log.push_back(payload.to_vec());
    }
    reader.join().expect("reader");
    let elapsed = begin.elapsed();
    stream.close();
    (writes * chunk) as f64 / elapsed.as_secs_f64() / 1e6
}

/// The same stream-level workload on the new data plane: one shared
/// allocation, O(1) `Buf` clones into the inbox and the record log,
/// reads handed back as refcounted slices of the original storage.
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
    let body: Vec<String> = entries
        .iter()
        .map(|(size, v)| format!("\"{size}\": {v:.2}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

struct Report {
    echo_single: Vec<(usize, EchoResult)>,
    echo_mve: Vec<(usize, EchoResult)>,
    bulk_single: Vec<(usize, f64)>,
    bulk_mve: Vec<(usize, f64)>,
    stream_legacy: Vec<(usize, f64)>,
    stream_shared: Vec<(usize, f64)>,
}

impl Report {
    fn speedup(&self, size: usize) -> f64 {
        let shared = self
            .stream_shared
            .iter()
            .find(|(s, _)| *s == size)
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        let legacy = self
            .stream_legacy
            .iter()
            .find(|(s, _)| *s == size)
            .map(|(_, v)| *v)
            .unwrap_or(f64::INFINITY);
        shared / legacy
    }

    fn gate_metrics(&self) -> Vec<(String, f64)> {
        // Throughput gates use 4 KiB only: the 64 KiB measurement
        // finishes in well under a millisecond in quick mode, which is
        // too noisy to gate at a 20% floor.
        let mut gates = Vec::new();
        for &(size, v) in &self.bulk_single {
            if size == 4096 {
                gates.push((format!("bulk_single_mbps_{size}"), v));
            }
        }
        for &(size, v) in &self.stream_shared {
            if size == 4096 {
                gates.push((format!("stream_shared_mbps_{size}"), v));
            }
        }
        for size in [4096usize, 65536] {
            gates.push((format!("speedup_vs_legacy_{size}"), self.speedup(size)));
        }
        gates
    }

    fn emit_json(&self, mode: &str) -> String {
        fn echo_map(entries: &[(usize, EchoResult)]) -> String {
            let body: Vec<String> = entries
                .iter()
                .map(|(size, r)| {
                    format!(
                        "\"{size}\": {{\"kops\": {:.2}, \"p50_ns\": {}, \"p99_ns\": {}}}",
                        r.kops, r.p50_ns, r.p99_ns
                    )
                })
                .collect();
            format!("{{{}}}", body.join(", "))
        }
        let gate_body: Vec<String> = self
            .gate_metrics()
            .iter()
            .map(|(k, v)| format!("    \"{k}\": {v:.2}"))
            .collect();
        format!(
            "{{\n  \"bench\": \"vos_bench\",\n  \"mode\": \"{mode}\",\n  \
             \"note\": \"legacy = reconstructed pre-rewrite per-byte stream + Vec record clones; \
             shared = Buf chunk-queue data plane; speedups are stream-level at equal workloads\",\n  \
             \"results\": {{\n    \"echo\": {{\"single\": {}, \"mve\": {}}},\n    \
             \"bulk_mbps\": {{\"single\": {}, \"mve\": {}}},\n    \
             \"stream_mbps\": {{\"legacy\": {}, \"shared\": {}}}\n  }},\n  \
             \"gate\": {{\n{}\n  }}\n}}\n",
            echo_map(&self.echo_single),
            echo_map(&self.echo_mve),
            size_map(&self.bulk_single),
            size_map(&self.bulk_mve),
            size_map(&self.stream_legacy),
            size_map(&self.stream_shared),
            gate_body.join(",\n"),
        )
    }
}

/// Extracts `"key": <number>` from the `"gate"` object of a previously
/// emitted report — enough to gate CI without a JSON dependency.
fn baseline_metric(json: &str, key: &str) -> Option<f64> {
    let scope = json.split("\"gate\"").nth(1)?;
    let scope = &scope[..scope.find('}')?];
    let tail = scope.split(&format!("\"{key}\"")).nth(1)?;
    let tail = tail.trim_start().strip_prefix(':')?.trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// The ≥2× floor the rewrite must clear at 4 KiB and above, re-checked
/// on every `--check` run, independent of the committed baseline.
const SPEEDUP_FLOOR: f64 = 2.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut params = &FULL;
    let mut out_path = String::from("BENCH_vos.json");
    let mut check_path: Option<String> = None;
    let mut min_ratio = 0.8f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => params = &QUICK,
            "--out" => out_path = it.next().expect("--out PATH").clone(),
            "--check" => check_path = Some(it.next().expect("--check BASELINE").clone()),
            "--min-ratio" => {
                min_ratio = it
                    .next()
                    .expect("--min-ratio R")
                    .parse()
                    .expect("ratio must be a number")
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: vos_bench [--quick] [--out PATH] [--check BASELINE [--min-ratio R]]"
                );
                std::process::exit(2);
            }
        }
    }

    eprintln!("vos_bench: mode={}", params.name);
    let mut port = 9300u16;
    let mut next_port = || {
        port += 1;
        port
    };

    let mut report = Report {
        echo_single: Vec::new(),
        echo_mve: Vec::new(),
        bulk_single: Vec::new(),
        bulk_mve: Vec::new(),
        stream_legacy: Vec::new(),
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
        let legacy = bench_stream_legacy(size, params.bulk_bytes);
        let shared = bench_stream_shared(next_port(), size, params.bulk_bytes);
        eprintln!(
            "  stream {size:>6}B: legacy {legacy:9.1} MB/s   shared {shared:9.1} MB/s   ({:.2}x)",
            shared / legacy
        );
        report.stream_legacy.push((size, legacy));
        report.stream_shared.push((size, shared));
    }

    let json = report.emit_json(params.name);
    std::fs::write(&out_path, &json).expect("write report");
    eprintln!("  wrote {out_path}");

    if let Some(path) = check_path {
        let baseline =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let mut failed = false;
        for (key, measured) in report.gate_metrics() {
            if key.starts_with("speedup_vs_legacy") {
                let verdict = if measured < SPEEDUP_FLOOR {
                    failed = true;
                    "BELOW FLOOR"
                } else {
                    "ok"
                };
                eprintln!(
                    "  gate {key}: measured {measured:.2}x vs floor {SPEEDUP_FLOOR:.1}x .. {verdict}"
                );
                continue;
            }
            let base = baseline_metric(&baseline, &key)
                .unwrap_or_else(|| panic!("baseline {path} lacks gate.{key}"));
            let floor = base * min_ratio;
            let verdict = if measured < floor {
                failed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            eprintln!(
                "  gate {key}: measured {measured:.2} vs baseline {base:.2} (floor {floor:.2}) .. {verdict}"
            );
        }
        if failed {
            eprintln!(
                "vos_bench: regressed >{:.0}% below baseline or under the {SPEEDUP_FLOOR:.1}x legacy floor",
                (1.0 - min_ratio) * 100.0
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_metric_reads_gate_scope() {
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
            bulk_single: vec![(4096, 1000.0), (65536, 4000.0)],
            bulk_mve: vec![(4096, 500.0)],
            stream_legacy: vec![(4096, 300.0), (65536, 500.0)],
            stream_shared: vec![(4096, 900.0), (65536, 2500.0)],
        };
        let json = report.emit_json("quick");
        assert_eq!(
            baseline_metric(&json, "bulk_single_mbps_4096"),
            Some(1000.0)
        );
        assert_eq!(
            baseline_metric(&json, "stream_shared_mbps_4096"),
            Some(900.0)
        );
        // 64 KiB throughput is deliberately ungated (too noisy in quick
        // mode); only its speedup floor is.
        assert_eq!(baseline_metric(&json, "stream_shared_mbps_65536"), None);
        assert_eq!(baseline_metric(&json, "speedup_vs_legacy_4096"), Some(3.0));
        assert_eq!(baseline_metric(&json, "speedup_vs_legacy_65536"), Some(5.0));
        assert_eq!(baseline_metric(&json, "missing"), None);
    }
}
