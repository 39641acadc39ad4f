use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vos::{OsResult, VirtualKernel};

use crate::client::LineClient;
use crate::rng::SplitMix64;
use crate::stats::WorkloadReport;

/// Which wire protocol the generator speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvFlavor {
    /// The Figure 1 running example (`PUT`/`GET`).
    KvStore,
    /// Redis inline commands (`SET`/`GET`).
    Redis,
    /// Memcached text protocol (`set` + data line / `get`).
    Memcached,
}

/// Configuration of a key-value load run — the Memtier stand-in.
#[derive(Clone, Debug)]
pub struct KvConfig {
    pub port: u16,
    pub flavor: KvFlavor,
    /// Concurrent closed-loop client connections (threads).
    pub clients: usize,
    pub duration: Duration,
    /// Fraction of reads; the paper uses 0.9.
    pub read_ratio: f64,
    /// Keys are `key:0 .. key:(keyspace-1)`.
    pub keyspace: u64,
    /// Payload bytes per value.
    pub value_len: usize,
    pub seed: u64,
    /// Width of one throughput-series bucket.
    pub bucket_ms: u64,
}

impl KvConfig {
    /// The paper's defaults: 90% reads, modest keyspace.
    pub fn new(port: u16, flavor: KvFlavor) -> Self {
        KvConfig {
            port,
            flavor,
            clients: 2,
            duration: Duration::from_secs(2),
            read_ratio: 0.9,
            keyspace: 1000,
            value_len: 32,
            seed: 42,
            bucket_ms: 250,
        }
    }
}

fn make_value(len: usize, tag: u64) -> String {
    let mut v = format!("v{tag:016x}");
    while v.len() < len {
        v.push('x');
    }
    v.truncate(len.max(1));
    v
}

/// One read or write against the server; returns Ok on a well-formed
/// reply of any kind (a `NOT_FOUND` is still a completed op).
fn one_op(
    client: &mut LineClient,
    flavor: KvFlavor,
    is_read: bool,
    key: u64,
    value: &str,
) -> OsResult<()> {
    match (flavor, is_read) {
        (KvFlavor::KvStore, true) => {
            client.send_line(&format!("GET key:{key}"))?;
            client.recv_line()?;
        }
        (KvFlavor::KvStore, false) => {
            client.send_line(&format!("PUT key:{key} {value}"))?;
            client.recv_line()?;
        }
        (KvFlavor::Redis, true) => {
            client.send_line(&format!("GET key:{key}"))?;
            let head = client.recv_line()?;
            if head.starts_with('$') && head != "$-1" {
                client.recv_line()?; // the bulk payload line
            }
        }
        (KvFlavor::Redis, false) => {
            client.send_line(&format!("SET key:{key} {value}"))?;
            client.recv_line()?;
        }
        (KvFlavor::Memcached, true) => {
            client.send_line(&format!("get key:{key}"))?;
            loop {
                let line = client.recv_line()?;
                if line == "END" {
                    break;
                }
            }
        }
        (KvFlavor::Memcached, false) => {
            client.send_line(&format!("set key:{key} 0 0 {}", value.len()))?;
            client.send_line(value)?;
            client.recv_line()?; // STORED
        }
    }
    Ok(())
}

/// Runs the key-value workload against `kernel` and returns the merged
/// report. Blocks for `config.duration`.
pub fn run_kv(kernel: Arc<VirtualKernel>, config: &KvConfig) -> WorkloadReport {
    let stop = Arc::new(AtomicBool::new(false));
    let num_buckets = (config.duration.as_millis() as u64 / config.bucket_ms + 2) as usize;
    let reads_per_million = (config.read_ratio.clamp(0.0, 1.0) * 1e6) as u64;
    let started = Instant::now();

    let handles: Vec<_> = (0..config.clients.max(1))
        .map(|client_idx| {
            let kernel = kernel.clone();
            let config = config.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut report = WorkloadReport::new(config.bucket_ms, num_buckets);
                let mut rng = SplitMix64::new(config.seed ^ ((client_idx as u64) << 32));
                let Ok(mut client) =
                    LineClient::connect_retry(kernel.clone(), config.port, Duration::from_secs(5))
                else {
                    report.record_error();
                    return report;
                };
                while !stop.load(Ordering::Relaxed) {
                    let is_read = rng.chance(reads_per_million, 1_000_000);
                    let key = rng.below(config.keyspace.max(1));
                    let value = make_value(config.value_len, key);
                    let begin = Instant::now();
                    match one_op(&mut client, config.flavor, is_read, key, &value) {
                        Ok(()) => {
                            report.record(started.elapsed(), begin.elapsed());
                        }
                        Err(_) => {
                            report.record_error();
                            // Reconnect: the server may have dropped the
                            // connection (or we hit a timeout).
                            match LineClient::connect_retry(
                                kernel.clone(),
                                config.port,
                                Duration::from_secs(5),
                            ) {
                                Ok(fresh) => client = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                }
                report.elapsed = started.elapsed();
                report
            })
        })
        .collect();

    std::thread::sleep(config.duration);
    stop.store(true, Ordering::Relaxed);

    let mut merged = WorkloadReport::new(config.bucket_ms, num_buckets);
    for handle in handles {
        if let Ok(report) = handle.join() {
            merged.merge(&report);
        }
    }
    merged.elapsed = started.elapsed();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_padded_and_truncated() {
        assert_eq!(make_value(4, 0).len(), 4);
        assert_eq!(make_value(40, 7).len(), 40);
        assert!(make_value(40, 7).starts_with("v0000000000000007"));
    }

    #[test]
    fn config_defaults_match_paper() {
        let c = KvConfig::new(1, KvFlavor::Redis);
        assert!((c.read_ratio - 0.9).abs() < f64::EPSILON);
    }
}
