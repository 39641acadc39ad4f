//! One write per pipelined read: Redis and Memcached answer every
//! command of one read with one replicated `write` (and Redis with one
//! stats clock read), so a batch costs the leader one reply record
//! instead of one per command.

use std::time::{Duration, Instant};

use dsu::DsuApp;
use mve::VariantOs;
use servers::memcached::McApp;
use servers::redis::{RedisApp, RedisOptions};
use vos::{SyscallKind, VirtualKernel};

const COMMANDS: usize = 128;

/// Per-kind counts of the calls a single leader made while serving one
/// pipelined batch.
#[derive(Debug, PartialEq, Eq)]
struct BatchCalls {
    writes: u64,
    clock_reads: u64,
}

/// Boots `app` on `port` as a single leader, connects, sends `batch` in
/// one client write, steps until the client holds `expected.len()`
/// bytes and returns the calls the leader made. The batch must fit in
/// one 4 KiB server read.
fn serve_batch(mut app: impl DsuApp, port: u16, batch: &[u8], expected: &[u8]) -> BatchCalls {
    assert!(
        batch.len() <= 4096,
        "batch of {} B spans reads",
        batch.len()
    );
    let kernel = VirtualKernel::new();
    let mut os = VariantOs::single(0, kernel.clone(), None);
    let _ = app.step(&mut os); // binds
    let client = kernel.connect(port).unwrap();
    kernel.client_send(client, batch).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got = Vec::new();
    while got.len() < expected.len() && Instant::now() < deadline {
        let _ = app.step(&mut os);
        if let Ok(data) = kernel.client_recv_timeout(client, 1 << 16, Duration::from_millis(1)) {
            got.extend_from_slice(&data);
        }
    }
    assert_eq!(
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(expected)
    );
    let stats = os.stats();
    BatchCalls {
        writes: stats.count_for(SyscallKind::Write),
        clock_reads: stats.count_for(SyscallKind::Now),
    }
}

#[test]
fn redis_answers_a_pipelined_batch_with_one_write_and_one_clock_read() {
    let port = 7950;
    let (mut batch, mut expected) = (String::new(), String::new());
    for i in 0..COMMANDS / 2 {
        batch.push_str(&format!("SET k{i:03} v{i:03}\r\nGET k{i:03}\r\n"));
        expected.push_str(&format!("+OK\r\n$4\r\nv{i:03}\r\n"));
    }
    let app = RedisApp::new(dsu::v("2.0.0"), &RedisOptions::new(port));
    let calls = serve_batch(app, port, batch.as_bytes(), expected.as_bytes());
    assert_eq!(
        calls,
        BatchCalls {
            writes: 1,
            clock_reads: 1
        }
    );
}

#[test]
fn memcached_answers_a_pipelined_batch_with_one_write() {
    let port = 7951;
    let (mut batch, mut expected) = (String::new(), String::new());
    for i in 0..COMMANDS / 2 {
        batch.push_str(&format!("set k{i:03} 0 0 4\r\nv{i:03}\r\nget k{i:03}\r\n"));
        expected.push_str(&format!(
            "STORED\r\nVALUE k{i:03} 0 4\r\nv{i:03}\r\nEND\r\n"
        ));
    }
    let app = McApp::new(dsu::v("1.2.2"), port, 4);
    let calls = serve_batch(app, port, batch.as_bytes(), expected.as_bytes());
    assert_eq!(
        calls,
        BatchCalls {
            writes: 1,
            clock_reads: 0
        }
    );
}
